package experiments

import (
	"fmt"

	"dlvp/internal/predictor"
	"dlvp/internal/predictor/cap"
	"dlvp/internal/predictor/pap"
	"dlvp/internal/tabletext"
	"dlvp/internal/trace"
	"dlvp/internal/workloads"
)

// papObserver drives PAP over a committed load stream in program order
// (predict, then train immediately): the standalone protocol behind
// Figure 4.
type papObserver struct {
	pred  *pap.Predictor
	stats *predictor.Stats
}

func (o papObserver) Observe(rec *trace.Rec) {
	if !rec.IsLoad() {
		return
	}
	lk := o.pred.Lookup(rec.PC)
	o.stats.Record(lk.Confident, lk.Confident && lk.Addr == rec.Addr)
	o.pred.Train(lk, rec.Addr, 3, -1)
	o.pred.PushLoad(rec.PC)
}

// capObserver mirrors papObserver for the CAP baseline.
type capObserver struct {
	pred  *cap.Predictor
	stats *predictor.Stats
}

func (o capObserver) Observe(rec *trace.Rec) {
	if !rec.IsLoad() {
		return
	}
	lk := o.pred.Lookup(rec.PC)
	o.stats.Record(lk.Confident, lk.Confident && lk.Addr == rec.Addr)
	o.pred.Train(lk, rec.PC, rec.Addr)
}

// addrTally races PAP at its default confidence against CAP at each of
// capConfs, with fresh predictors per workload, summing their standalone
// stats over the pool.
type addrTally struct {
	capConfs []int
	pap      predictor.Stats
	cap      []predictor.Stats // parallel to capConfs
}

func newAddrTally(capConfs ...int) *addrTally {
	return &addrTally{capConfs: capConfs, cap: make([]predictor.Stats, len(capConfs))}
}

func (a *addrTally) open(workloads.Workload) ([]observer, func()) {
	obs := []observer{papObserver{pap.New(pap.DefaultConfig()), &a.pap}}
	for i, conf := range a.capConfs {
		cfg := cap.DefaultConfig()
		cfg.Confidence = conf
		obs = append(obs, capObserver{cap.New(cfg), &a.cap[i]})
	}
	return obs, nil
}

// Fig4 reproduces Figure 4: coverage and accuracy of PAP (confidence 8)
// against CAP swept across confidence levels 3..64, as standalone address
// predictors over the dynamic load stream.
func Fig4(p Params) ([]*tabletext.Table, error) {
	a := newAddrTally(3, 8, 16, 24, 32, 64)
	if err := streamPool(p, a.open); err != nil {
		return nil, err
	}
	t := &tabletext.Table{
		Title:  "Figure 4: standalone address prediction (all workloads aggregated)",
		Header: []string{"predictor", "confidence", "coverage %", "accuracy %"},
	}
	t.AddRow("PAP", 8, a.pap.Coverage(), a.pap.Accuracy())
	for i, conf := range a.capConfs {
		t.AddRow("CAP", conf, a.cap[i].Coverage(), a.cap[i].Accuracy())
	}
	cap8 := a.cap[1] // capConfs[1] is 8, the paper's comparison point
	t.Notes = append(t.Notes,
		fmt.Sprintf("paper at confidence 8: PAP 37%%/99.1%% vs CAP 29.5%%/97.7%%; here PAP %.1f%%/%.2f%% vs CAP %.1f%%/%.2f%%",
			a.pap.Coverage(), a.pap.Accuracy(), cap8.Coverage(), cap8.Accuracy()),
		"expected shape: PAP acc > 99% at conf 8; CAP needs conf ~64 to match, losing coverage",
	)
	return []*tabletext.Table{t}, nil
}
