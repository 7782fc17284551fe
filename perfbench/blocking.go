package main

import (
	"fmt"
	"time"

	"dlfuzz"
	"dlfuzz/internal/fuzzer"
	"dlfuzz/internal/sched"
	"dlfuzz/internal/workloads"
)

// The blocking workload's campaign: runs per program, the completion
// delay bias `dlfuzz -blocking` defaults to, and the per-run step
// bound. Every planted program blocks within 11 steps and every
// control completes within 19, so 2000 steps keeps each planted
// verdict while the spin-not-flagged control, which always runs to the
// bound, stays near a quarter of the campaign time instead of all of it
// (at the scheduler's default bound of 1M steps it takes 1e9 steps).
const (
	blockingRuns     = 1000
	blockingBias     = 0.7
	blockingMaxSteps = 2000
)

// blockingBench is the `dlfuzz -blocking` path: FindBlocking over the
// Go-coded blocking suite. The expected answer is each program's
// planted verdict kind (workloads.Workload.ExpectPartial/ExpectTotal).
type blockingBench struct {
	o        options
	programs []workloads.Workload
}

func (b *blockingBench) setup() error {
	b.programs = workloads.Blocking()
	return nil
}

func (b *blockingBench) size() int { return len(b.programs) }

func (b *blockingBench) options(parallelism int) dlfuzz.BlockingOptions {
	return dlfuzz.BlockingOptions{
		Runs: blockingRuns, MaxSteps: blockingMaxSteps, Bias: blockingBias, Parallelism: parallelism,
	}
}

func (b *blockingBench) verdict(i int, tr *tracer, c counts) error {
	w := b.programs[i]
	tr.begin("blocking")
	rep := dlfuzz.FindBlocking(w.Prog, b.options(b.o.workers))
	tr.end()

	planted := w.ExpectPartial || w.ExpectTotal
	if planted && len(rep.Verdicts) == 0 {
		return fmt.Errorf("%s: no blocked verdict for a planted deadlock", w.Name)
	}
	if !planted && (len(rep.Verdicts) > 0 || rep.DeadlockRuns > 0) {
		return fmt.Errorf("%s: control program reported a deadlock", w.Name)
	}
	for _, v := range rep.Verdicts {
		if v.Partial != w.ExpectPartial || !v.Partial != w.ExpectTotal {
			return fmt.Errorf("%s: verdict %s is not of the planted kind", w.Name, v.Key)
		}
	}

	c["programs"]++
	c["runs"] += rep.Runs
	c["completed_runs"] += rep.CompletedRuns
	c["lock_deadlock_runs"] += rep.DeadlockRuns
	c["step_limit_runs"] += rep.StepLimitRuns
	c["blocked_runs"] += rep.BlockedRuns
	c["blocked_runs.partial"] += rep.PartialRuns
	c["blocked_runs.total"] += rep.TotalRuns
	c["verdicts"] += len(rep.Verdicts)
	c["executions"] += rep.Runs
	c["steps"] += rep.Steps
	c["deadlocks_found"] += len(rep.Verdicts)
	return nil
}

func (b *blockingBench) layers(tr *tracer, c counts, m values) error {
	bodies := make([]func(*sched.Ctx), len(b.programs))
	for i, w := range b.programs {
		bodies[i] = w.Prog
	}
	if err := probeSched(bodies, b.o.seed, 200, blockingMaxSteps, false, m); err != nil {
		return err
	}
	// The campaign's own executions, seeds 0..runs-1 under the
	// blocking policy, one pooled scheduler as a campaign worker uses.
	pol := fuzzer.BlockingPolicy{P: blockingBias}
	var execs []float64
	var execNs, serialNs, parallelNs float64
	for _, body := range bodies {
		xs, err := timeExecs(blockingRuns, func(pool *sched.Pool, seed int) *sched.Result {
			return pool.Run(sched.Options{Seed: int64(seed), MaxSteps: blockingMaxSteps, Policy: pol}, body)
		})
		if err != nil {
			return err
		}
		for _, x := range xs {
			execs = append(execs, x.ns/1e3)
			execNs += x.ns
		}
		start := time.Now()
		dlfuzz.FindBlocking(body, b.options(1))
		serialNs += float64(time.Since(start).Nanoseconds())
		start = time.Now()
		dlfuzz.FindBlocking(body, b.options(scalingWorkers()))
		parallelNs += float64(time.Since(start).Nanoseconds())
	}
	m["fuzzer.blocking_exec_us.p50"] = quantile(execs, 0.5)
	m["fuzzer.blocking_exec_us.p99"] = quantile(execs, 0.99)
	m["campaign.blocking_ms.p50"] = quantile(tr.durations("blocking"), 0.5) / 1e6
	m["campaign.blocked_ratio"] = ratio(float64(c["blocked_runs"]), float64(c["runs"]))
	m["campaign.merge_frac"] = 1 - ratio(execNs, serialNs)
	m["campaign.scaling"] = ratio(serialNs, parallelNs)
	return nil
}
