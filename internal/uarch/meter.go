package uarch

import (
	"dlvp/internal/energy"
	"dlvp/internal/metrics"
)

// Energy prices the counter vector v against this core's structures:
// static energy over its cycles, base dynamic energy per committed
// instruction, and every structure access it counts. A full run prices
// its whole-run vector; a sampled interval prices its measured one. DLVP's
// probes are metered against a one-way slice of the L1D data array (the
// way-prediction power optimisation of Section 3.2.2); demand accesses
// read the full set.
func (c *Core) Energy(v metrics.Counters) float64 {
	m := energy.NewMeter()

	l1dBits := c.cfg.Mem.L1D.SizeBytes * 8
	ways := c.cfg.Mem.L1D.Ways
	m.Register(energy.RAMSpec{Name: "L1D", Bits: l1dBits, ReadPorts: 2, WritePorts: 1})
	m.AddReads("L1D", v[metrics.L1DAccesses])
	m.Register(energy.RAMSpec{Name: "L1D-probe", Bits: l1dBits / ways, ReadPorts: 1, WritePorts: 0})
	m.AddReads("L1D-probe", v[metrics.Probes])

	m.Register(energy.RAMSpec{Name: "L1I", Bits: c.cfg.Mem.L1I.SizeBytes * 8, ReadPorts: 1, WritePorts: 1})
	m.AddReads("L1I", v[metrics.L1IAccesses])
	m.Register(energy.RAMSpec{Name: "L2", Bits: c.cfg.Mem.L2.SizeBytes * 8, ReadPorts: 1, WritePorts: 1})
	m.AddReads("L2", v[metrics.L2Accesses])
	m.Register(energy.RAMSpec{Name: "L3", Bits: c.cfg.Mem.L3.SizeBytes * 8, ReadPorts: 1, WritePorts: 1})
	m.AddReads("L3", v[metrics.L3Accesses])

	m.Register(energy.PRFSpec(8, 8))
	m.AddReads("PRF", v[metrics.PRFReads])
	m.AddWrites("PRF", v[metrics.PRFWrites])

	m.Register(energy.PVTSpec())
	m.AddWrites("PVT", v[metrics.PVTWrites])
	m.AddReads("PVT", v[metrics.PVTWrites]) // each predicted value is read ~once

	// Each predictor table is trained once per lookup.
	price := func(name string, bits int, lookups metrics.Counter) {
		m.Register(energy.RAMSpec{Name: name, Bits: bits, ReadPorts: 2, WritePorts: 1})
		m.AddReads(name, v[lookups])
		m.AddWrites(name, v[lookups])
	}
	if c.papPred != nil {
		price("APT", c.papPred.StorageBits(), metrics.APTLookups)
	}
	if c.capPred != nil {
		price("CAP", c.capPred.StorageBits(), metrics.CAPLookups)
	}
	if c.dvPred != nil {
		price("DVTAGE", c.dvPred.StorageBits(), metrics.DVTAGELookups)
	}
	if c.vtPred != nil {
		price("VTAGE", c.vtPred.StorageBits(), metrics.VTAGELookups)
	}
	return energy.DefaultCoreModel().Total(v[metrics.Cycles], v[metrics.Instructions], m)
}
