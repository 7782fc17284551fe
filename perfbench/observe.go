package main

import (
	"errors"
	"fmt"
	"time"

	"dlfuzz"
	"dlfuzz/internal/analysis"
	"dlfuzz/internal/corpus"
	"dlfuzz/internal/hb"
	"dlfuzz/internal/lang/gen"
	"dlfuzz/internal/object"
	"dlfuzz/internal/predict"
	"dlfuzz/internal/sched"
)

// The observe workload's size: programs, observation runs per program,
// the per-execution step bound (the corpus harvest's), and how many
// programs the traced run's probes use.
const (
	observePrograms = 512
	observeRuns     = 4
	observeMaxSteps = 200000
	observeProbed   = 128
)

// observeBench is the dlgen-harvest path: generated `medium` programs
// (the preset the committed corpus was harvested with), each parsed,
// compiled and observed by one multi-run campaign, then every
// registered finder and the happens-before filter over the merged
// relation. There is no Phase II. The expected answer is the sound
// finder's claim: its candidates are a subset of the closure's.
//
// Set-up generates the sources; each verdict parses its program afresh,
// as a harvest does, so memory holds sources only (a compiled program
// keeps about 65 KB alive) and compile cost stays in every verdict.
type observeBench struct {
	o    options
	srcs []string
}

// genSeed is program i's generator seed. The program list is the same
// at every workload seed, which picks the observation campaigns' base
// scheduler seed: generated programs differ in cost by far more than
// timing noise (the total steps of 2048 programs moved 14% between
// seeds), so a seed-dependent list would make one seed's figures
// incomparable with another's.
func (b *observeBench) genSeed(i int) int64 { return int64(i) + 1 }

func (b *observeBench) setup() error {
	srcs := make([]string, observePrograms)
	for i := range srcs {
		srcs[i] = gen.Generate(b.genSeed(i), gen.Medium())
	}
	b.srcs = srcs
	return nil
}

func (b *observeBench) size() int { return len(b.srcs) }

func observeConfig(k int) predict.Config {
	return predict.Config{Abstraction: object.ExecIndex, K: k}
}

func (b *observeBench) campaignOptions(parallelism int) analysis.CampaignOptions {
	return analysis.CampaignOptions{
		Runs: observeRuns, Parallelism: parallelism, ClosureParallelism: parallelism,
		Seed: b.o.seed, MaxSteps: observeMaxSteps,
	}
}

func (b *observeBench) verdict(i int, tr *tracer, c counts) error {
	tr.begin("parse")
	p, err := dlfuzz.ParseCLF(corpus.AnalysisName, b.srcs[i])
	tr.end()
	if err != nil {
		return fmt.Errorf("generated program %d: %w", b.genSeed(i), err)
	}
	tr.begin("compile")
	body := p.Body()
	tr.end()
	cfg := observeConfig(10)

	tr.begin("observe")
	co, pobs, err := analysis.ObserveRelation(body, cfg, b.campaignOptions(b.o.workers))
	tr.end()
	c["programs"]++
	c["observe.runs"] += co.Runs
	c["observe.completed_runs"] += co.Completed
	c["observe.attempts"] += co.Attempts
	c["observe.deadlocked_attempts"] += len(co.ObservedDeadlocks)
	c["executions"] += co.Attempts
	c["steps"] += co.Steps
	for _, dl := range co.ObservedDeadlocks {
		c["steps"] += dl.Step
	}
	if errors.Is(err, analysis.ErrNoCompletedRun) && len(co.ObservedDeadlocks) > 0 {
		// Every attempt deadlocked: the verdict is the witnessed
		// deadlocks, as `dlfuzz` reports them, with nothing to predict.
		c["observed_only"]++
		return nil
	}
	if err != nil {
		return fmt.Errorf("generated program %d: %w", b.genSeed(i), err)
	}
	c["deps"] += co.Deps

	cfg.Parallelism = b.o.workers
	keys := make(map[string]map[string]bool)
	for _, f := range predict.All() {
		tr.begin(f.Name())
		cands := f.Find(pobs, cfg)
		tr.end()
		tr.begin("hb_filter")
		plausible, fps := hb.FilterCycles(predict.Cycles(cands))
		tr.end()
		set := make(map[string]bool, len(cands))
		for _, cand := range cands {
			set[cand.Cycle.Key()] = true
		}
		keys[f.Name()] = set
		c["candidates."+f.Name()] += len(plausible)
		c["hb_filtered."+f.Name()] += len(fps)
		if f.Name() == "sync" {
			c["deadlocks_found"] += len(plausible)
		}
	}
	for key := range keys["sync"] {
		if !keys["igoodlock"][key] {
			return fmt.Errorf("generated program %d: sync candidate %s is not an igoodlock candidate", b.genSeed(i), key)
		}
	}
	return nil
}

func (b *observeBench) layers(tr *tracer, c counts, m values) error {
	n := min(observeProbed, len(b.srcs))
	bodies := make([]func(*sched.Ctx), n)
	for i := range bodies {
		p, err := dlfuzz.ParseCLF(corpus.AnalysisName, b.srcs[i])
		if err != nil {
			return err
		}
		bodies[i] = p.Body()
	}
	if err := probeLang(b.srcs[:n], m); err != nil {
		return err
	}
	if err := probeSched(bodies, b.o.seed, 4, observeMaxSteps, true, m); err != nil {
		return err
	}
	if err := probePhase1(bodies, observeRuns, b.o.seed, observeMaxSteps, 10, b.o.workers, m); err != nil {
		return err
	}
	// Scaling: the same observation campaigns serially and at nproc
	// workers.
	var serialNs, parallelNs float64
	cfg := observeConfig(10)
	for _, body := range bodies {
		start := time.Now()
		analysis.ObserveRelation(body, cfg, b.campaignOptions(1))
		serialNs += float64(time.Since(start).Nanoseconds())
		start = time.Now()
		analysis.ObserveRelation(body, cfg, b.campaignOptions(scalingWorkers()))
		parallelNs += float64(time.Since(start).Nanoseconds())
	}
	m["campaign.scaling"] = ratio(serialNs, parallelNs)
	return nil
}
