package experiments

import (
	"context"
	"fmt"

	"dlvp/internal/config"
	"dlvp/internal/runner"
	"dlvp/internal/siteprof"
	"dlvp/internal/tabletext"
)

// sitesTopN is how many worst-mispredicting static loads each
// (workload, scheme) cell of the Sites table shows.
const sitesTopN = 3

// siteEngine is the capability Sites needs from an Engine: full results,
// which carry each run's site profile. The local runner records one on
// every run; a dispatcher's jobs that executed on a peer come back without
// one, so the daemon runs this experiment on its local runner.
type siteEngine interface {
	RunResult(ctx context.Context, job runner.Job) (runner.Result, bool, error)
}

// Sites regenerates the per-load-site attribution table: for each
// workload and scheme, the top mispredicting static loads with their
// dominant cause — which sites store-conflict, which alias in the APT,
// which never reach confidence. This is the drill-down behind the
// aggregate accuracy columns of Figures 6-8: two schemes with equal
// accuracy typically fail at different sites for different reasons.
// Figure 6 simulates the same jobs, so on an engine that ran it every
// run here is a cache hit.
func Sites(p Params) ([]*tabletext.Table, error) {
	specs, err := p.PlanMatrix(map[string]config.Core{
		"dlvp":  config.DLVP(),
		"cap":   config.CAPDLVP(),
		"vtage": config.VTAGE(),
	})
	if err != nil {
		return nil, err
	}
	eng, ok := p.runner().(siteEngine)
	if !ok {
		return nil, fmt.Errorf("experiments: engine %T returns no full results, so no site profiles", p.runner())
	}
	results, err := fanOut(p, specs, eng.RunResult)
	if err != nil {
		return nil, err
	}

	t := &tabletext.Table{
		Title: "Top mispredicting load sites per scheme (cause-attributed)",
		Header: []string{"workload", "scheme", "rank", "pc", "eligible", "cov%", "acc%",
			"mispred", "top cause", "conflict%"},
	}
	for i, spec := range specs {
		w, scheme, prof := spec.Workload, spec.Scheme, results[i].Sites
		if prof == nil {
			return nil, fmt.Errorf("experiments: engine returned no site profile for %s/%s", w, scheme)
		}
		rows := topMispredictingSites(prof, sitesTopN)
		if len(rows) == 0 {
			t.AddRow(w, scheme, "-", "-", "-", "-", "-", "0", "none", "-")
			continue
		}
		for rank, s := range rows {
			top := "-"
			if cause, _, ok := s.TopCause(); ok {
				top = cause.String()
			}
			t.AddRow(
				w, scheme,
				fmt.Sprintf("%d", rank+1),
				fmt.Sprintf("0x%x", s.PC),
				fmt.Sprintf("%d", s.Eligible),
				s.Coverage(), s.Accuracy(),
				fmt.Sprintf("%d", s.Mispredicts()),
				top,
				s.ConflictShare(),
			)
		}
	}
	return []*tabletext.Table{t}, nil
}

// topMispredictingSites returns up to n sites with at least one
// misprediction; the profile is already ranked mispredicts-first.
func topMispredictingSites(p *siteprof.Profile, n int) []siteprof.SiteReport {
	var out []siteprof.SiteReport
	for _, s := range p.Sites {
		if s.Mispredicts() == 0 {
			break
		}
		out = append(out, s)
		if len(out) == n {
			break
		}
	}
	return out
}
