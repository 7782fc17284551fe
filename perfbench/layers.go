package main

import (
	"errors"
	"fmt"
	"time"

	"dlfuzz"
	"dlfuzz/internal/analysis"
	"dlfuzz/internal/corpus"
	"dlfuzz/internal/hb"
	"dlfuzz/internal/predict"
	"dlfuzz/internal/sched"
)

// The traced run's probes: each times one layer's public calls from
// outside, on the workload's own programs.

// exec is one timed scheduled execution.
type exec struct {
	ns      float64
	steps   int
	outcome sched.Outcome
}

// timeExecs times run(pool, seed) for seeds 0..n-1 on one pooled
// scheduler, as a campaign worker runs them. A panicking program is an
// error.
func timeExecs(n int, run func(pool *sched.Pool, seed int) *sched.Result) (xs []exec, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("execution panicked: %v", r)
		}
	}()
	pool := sched.NewPool()
	xs = make([]exec, n)
	for seed := range xs {
		start := time.Now()
		res := run(pool, seed)
		xs[seed] = exec{ns: float64(time.Since(start).Nanoseconds()), steps: res.Steps, outcome: res.Outcome}
	}
	return xs, nil
}

// probeLang times ParseCLF on every source and the compile the first
// Body call of a freshly parsed program performs.
func probeLang(srcs []string, m values) error {
	var parse, compile []float64
	for _, src := range srcs {
		start := time.Now()
		p, err := dlfuzz.ParseCLF(corpus.AnalysisName, src)
		parse = append(parse, float64(time.Since(start).Nanoseconds())/1e3)
		if err != nil {
			return err
		}
		start = time.Now()
		p.Body()
		compile = append(compile, float64(time.Since(start).Nanoseconds())/1e3)
	}
	m["lang.parse_us.p50"] = quantile(parse, 0.5)
	m["lang.compile_us.p50"] = quantile(compile, 0.5)
	return nil
}

// probeSched runs each body under the plain random scheduler with no
// observers, seeds seed..seed+perBody-1, and reports execution time
// overall and by outcome, and time per step. With observers set it
// repeats the same executions with the observers a Phase I observation
// attaches (observers never change a schedule), which gives the
// analysis layer's cost per step over the plain scheduler's. Each
// execution's time is the median of probeReps timings, the plain and
// observed ones alternating, so that neither side gets a quieter
// stretch of the host than the other.
func probeSched(bodies []func(*sched.Ctx), seed int64, perBody, maxSteps int, observers bool, m values) error {
	const probeReps = 5
	var all []float64
	byOutcome := map[sched.Outcome][]float64{}
	var ns, steps, observedNs float64
	var observed []float64
	for _, body := range bodies {
		var plainReps, observedReps [][]exec
		for r := 0; r < probeReps; r++ {
			xs, err := timeExecs(perBody, func(pool *sched.Pool, i int) *sched.Result {
				return pool.Run(sched.Options{Seed: seed + int64(i), MaxSteps: maxSteps}, body)
			})
			if err != nil {
				return err
			}
			plainReps = append(plainReps, xs)
			if !observers {
				continue
			}
			ys, err := timeExecs(perBody, func(pool *sched.Pool, i int) *sched.Result {
				var p analysis.Pipeline
				p.LockDeps(p.HB())
				p.Stats()
				analysis.Attach(&p, predict.NewHistory())
				return p.RunPooled(pool, body, analysis.Exec{Seed: seed + int64(i), MaxSteps: maxSteps})
			})
			if err != nil {
				return err
			}
			observedReps = append(observedReps, ys)
		}
		for i := 0; i < perBody; i++ {
			x := plainReps[0][i]
			x.ns = medianNs(plainReps, i)
			all = append(all, x.ns/1e3)
			byOutcome[x.outcome] = append(byOutcome[x.outcome], x.ns/1e3)
			ns += x.ns
			steps += float64(x.steps)
			if observers {
				y := medianNs(observedReps, i)
				observed = append(observed, y/1e3)
				observedNs += y
			}
		}
	}
	m["sched.exec_us.p50"] = quantile(all, 0.5)
	m["sched.exec_us.p99"] = quantile(all, 0.99)
	m["sched.ns_per_step"] = ratio(ns, steps)
	m["sched.exec_us.deadlock.p50"] = quantile(byOutcome[sched.Deadlock], 0.5)
	m["sched.exec_us.stall.p50"] = quantile(byOutcome[sched.Stall], 0.5)
	m["sched.exec_us.completed.p50"] = quantile(byOutcome[sched.Completed], 0.5)
	if len(observed) > 0 {
		m["analysis.exec_us.p50"] = quantile(observed, 0.5)
		m["analysis.observer_ns_per_step"] = ratio(observedNs, steps) - m["sched.ns_per_step"]
	}
	return nil
}

// medianNs is execution i's median time over the repetitions.
func medianNs(reps [][]exec, i int) float64 {
	xs := make([]float64, len(reps))
	for r, rep := range reps {
		xs[r] = rep[i].ns
	}
	return quantile(xs, 0.5)
}

// probePhase1 times the Phase I layers on each body: the observation
// campaign (analysis.ObserveRelation), every registered finder over the
// merged relation, and the happens-before filter over each finder's
// candidates.
func probePhase1(bodies []func(*sched.Ctx), runs int, seed int64, maxSteps, k, workers int, m values) error {
	cfg := observeConfig(k)
	opts := analysis.CampaignOptions{
		Runs: runs, Parallelism: workers, ClosureParallelism: workers, Seed: seed, MaxSteps: maxSteps,
	}
	var observe, filter []float64
	byFinder := map[string][]float64{}
	completed, attempts, candidates := 0, 0, 0
	for _, body := range bodies {
		start := time.Now()
		co, pobs, err := analysis.ObserveRelation(body, cfg, opts)
		observe = append(observe, float64(time.Since(start).Nanoseconds())/1e6)
		completed += co.Completed
		attempts += co.Attempts
		if errors.Is(err, analysis.ErrNoCompletedRun) {
			continue
		}
		if err != nil {
			return err
		}
		fcfg := cfg
		fcfg.Parallelism = workers
		for _, f := range predict.All() {
			start := time.Now()
			cands := f.Find(pobs, fcfg)
			byFinder[f.Name()] = append(byFinder[f.Name()], float64(time.Since(start).Nanoseconds())/1e3)
			start = time.Now()
			plausible, _ := hb.FilterCycles(predict.Cycles(cands))
			filter = append(filter, float64(time.Since(start).Nanoseconds())/1e3)
			if f.Name() == predict.DefaultFinder {
				candidates += len(plausible)
			}
		}
	}
	m["analysis.observe_ms.p50"] = quantile(observe, 0.5)
	m["analysis.completed_ratio"] = ratio(float64(completed), float64(attempts))
	m["predict.igoodlock_us.p50"] = quantile(byFinder["igoodlock"], 0.5)
	m["predict.sync_us.p50"] = quantile(byFinder["sync"], 0.5)
	m["predict.candidates"] = float64(candidates)
	m["hb.filter_us.p50"] = quantile(filter, 0.5)
	return nil
}
