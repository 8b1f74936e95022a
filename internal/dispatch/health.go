package dispatch

import (
	"context"
	"time"
)

// noteSuccess records a successful call or probe: the backend is healthy,
// its failure streak and backoff reset, and an ejected backend is
// reinstated immediately.
func (d *Dispatcher) noteSuccess(bs *backendState) {
	if bs.local {
		return
	}
	bs.mu.Lock()
	was := bs.ejected
	bs.ejected = false
	bs.consecFails = 0
	bs.backoff = 0
	bs.nextProbe = time.Time{}
	bs.lastErr = ""
	bs.mu.Unlock()
	if was && d.opts.Obs != nil {
		d.opts.Obs.Log.Info("dispatch: backend reinstated", "backend", bs.name)
	}
}

// noteFailure records a failed call or probe. Once the consecutive-failure
// streak reaches the ejection threshold the backend leaves the ring; each
// further failure doubles the re-probe backoff up to backoffMax, so a dead peer costs one cheap probe per backoff window instead
// of a timed-out request per job.
func (d *Dispatcher) noteFailure(bs *backendState, err error) {
	if bs.local {
		return
	}
	now := time.Now()
	bs.mu.Lock()
	bs.consecFails++
	bs.lastErr = err.Error()
	if bs.backoff == 0 {
		bs.backoff = backoffBase
	} else {
		bs.backoff *= 2
		if bs.backoff > backoffMax {
			bs.backoff = backoffMax
		}
	}
	bs.nextProbe = now.Add(bs.backoff)
	ejectedNow := !bs.ejected && bs.consecFails >= failThreshold
	if ejectedNow {
		bs.ejected = true
	}
	bs.mu.Unlock()
	if ejectedNow && d.opts.Obs != nil {
		d.opts.Obs.Log.Warn("dispatch: backend ejected", "backend", bs.name, "error", err)
	}
}

// healthLoop actively probes remote backends until Close. Healthy peers
// are probed every HealthInterval; failing or ejected peers follow their
// exponential backoff schedule, which is also the reinstatement path — a
// probe that succeeds puts the peer straight back into the ring.
func (d *Dispatcher) healthLoop() {
	ticker := time.NewTicker(d.opts.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-ticker.C:
			d.probeDue(time.Now())
		}
	}
}

// probeDue probes every remote backend whose backoff window has passed.
func (d *Dispatcher) probeDue(now time.Time) {
	for _, bs := range d.states {
		if bs.local {
			continue
		}
		bs.mu.Lock()
		due := bs.nextProbe.IsZero() || !now.Before(bs.nextProbe)
		bs.mu.Unlock()
		if due {
			d.probe(bs)
		}
	}
}

// ProbeAll health-checks every remote backend immediately, ignoring
// backoff schedules. Operators (and tests) use it to force a prompt
// ejection/reinstatement decision instead of waiting out the interval.
func (d *Dispatcher) ProbeAll(ctx context.Context) {
	for _, bs := range d.states {
		if bs.local {
			continue
		}
		select {
		case <-ctx.Done():
			return
		default:
		}
		d.probe(bs)
	}
}

// probe runs one health check and feeds the outcome into the
// ejection/reinstatement state machine.
func (d *Dispatcher) probe(bs *backendState) {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	err := bs.b.CheckHealth(ctx)
	cancel()
	bs.mu.Lock()
	bs.lastProbe = time.Now()
	bs.mu.Unlock()
	if err != nil {
		d.noteFailure(bs, err)
		return
	}
	d.noteSuccess(bs)
}
