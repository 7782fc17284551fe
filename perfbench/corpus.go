package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"dlfuzz"
	"dlfuzz/internal/corpus"
	"dlfuzz/internal/fuzzer"
	"dlfuzz/internal/obs"
	"dlfuzz/internal/report"
	"dlfuzz/internal/sched"
)

// corpusBudget is the fixed Phase II budget per program: ConfirmAll's
// total executions, shared across the program's candidates.
const corpusBudget = 1000

// corpusBench is the `dlfuzz program.clf` path over the committed
// corpus: ParseCLF, Find with the manifest's Phase I spec, ConfirmAll,
// witness Capture and Replay per confirmed cycle, and the report
// render. The expected answer is the manifest, written when the corpus
// was harvested.
type corpusBench struct {
	o        options
	manifest *corpus.Manifest
	spec     corpus.FindSpec
	srcs     []string
	programs []*dlfuzz.Program
	// traced keeps each program's campaign from the last traced pass,
	// for the fuzzer replay.
	traced []corpusCampaign
}

// corpusCampaign is one program's Phase II campaign as ConfirmAll ran
// it: the candidates, the report and every execution's record.
type corpusCampaign struct {
	cycles []*dlfuzz.Cycle
	ranks  []float64
	report *dlfuzz.MultiReport
	runs   []dlfuzz.RunRecord
}

func (b *corpusBench) setup() error {
	dir := filepath.Join(b.o.root, "testdata", "corpus")
	m, err := corpus.Load(dir)
	if err != nil {
		return err
	}
	srcs := make([]string, len(m.Entries))
	progs := make([]*dlfuzz.Program, len(m.Entries))
	for i, e := range m.Entries {
		data, err := os.ReadFile(filepath.Join(dir, e.File))
		if err != nil {
			return err
		}
		srcs[i] = string(data)
		// The fixed analysis name keeps cycle keys comparable with the
		// manifest's.
		if progs[i], err = dlfuzz.ParseCLF(corpus.AnalysisName, srcs[i]); err != nil {
			return fmt.Errorf("%s: %w", e.File, err)
		}
	}
	b.manifest, b.spec, b.srcs, b.programs = m, m.Find.WithDefaults(), srcs, progs
	b.traced = make([]corpusCampaign, len(progs))
	return nil
}

func (b *corpusBench) size() int { return len(b.programs) }

func (b *corpusBench) findOptions() dlfuzz.FindOptions {
	return dlfuzz.FindOptions{
		Abstraction: dlfuzz.ExecIndexAbstraction, K: b.spec.K, Seed: b.spec.Seed,
		MaxSteps: b.spec.MaxSteps, Runs: b.spec.Runs, Parallelism: b.o.workers,
	}
}

func (b *corpusBench) confirmOptions(ranks []float64, parallelism int) dlfuzz.ConfirmOptions {
	co := dlfuzz.DefaultConfirmOptions()
	co.K = b.spec.K
	co.Runs = corpusBudget
	co.MaxSteps = b.spec.MaxSteps
	co.Parallelism = parallelism
	co.Ranks = ranks
	return co
}

// fuzzerConfig is the checker configuration confirmOptions lowers to.
func (b *corpusBench) fuzzerConfig() fuzzer.Config {
	co := b.confirmOptions(nil, 1)
	return fuzzer.Config{Abstraction: co.Abstraction, K: co.K, UseContext: co.UseContext, YieldOpt: co.YieldOpt}
}

func (b *corpusBench) verdict(i int, tr *tracer, c counts) error {
	e := b.manifest.Entries[i]
	tr.begin("compile")
	body := b.programs[i].Body()
	tr.end()

	tr.begin("find")
	fr, err := dlfuzz.Find(body, b.findOptions())
	tr.end()
	if err != nil {
		return fmt.Errorf("%s: find: %w", e.File, err)
	}
	copts := b.confirmOptions(fr.Ranks(), b.o.workers)
	var runs []dlfuzz.RunRecord
	if tr != nil {
		copts.OnRun = func(r *dlfuzz.RunRecord) { runs = append(runs, *r) }
	}
	tr.begin("confirm")
	mr := dlfuzz.ConfirmAll(body, fr.Cycles, copts)
	tr.end()
	if tr != nil {
		b.traced[i] = corpusCampaign{cycles: fr.Cycles, ranks: fr.Ranks(), report: mr, runs: runs}
	}

	// Witnesses, as `dlfuzz -witness-dir` captures them and `dlfuzz
	// replay` checks them: re-create each confirmed cycle's first
	// confirming execution, then replay its recorded schedule.
	cfg := b.fuzzerConfig()
	var witnesses []*obs.Witness
	steps := mr.Steps
	for ci, rep := range mr.Reports {
		if !rep.Confirmed() {
			continue
		}
		target, seed := ci, rep.ExampleSeed
		if rep.Example == nil {
			target, seed = rep.CrossExampleTarget, rep.CrossExampleSeed
		}
		tr.begin("capture")
		wit, err := obs.Capture(body, "clf:"+e.File, fr.Cycles[target], target, cfg, seed, b.spec.MaxSteps)
		tr.end()
		if err != nil {
			return fmt.Errorf("%s: cycle %d: %w", e.File, ci+1, err)
		}
		tr.begin("replay")
		rr, err := obs.Replay(body, wit)
		tr.end()
		if err != nil {
			return fmt.Errorf("%s: cycle %d: %w", e.File, ci+1, err)
		}
		steps += wit.DeadlockStep + rr.Result.Steps
		witnesses = append(witnesses, wit)
	}
	tr.begin("render")
	var out bytes.Buffer
	renderCorpus(&out, e.File, fr, mr, witnesses)
	tr.end()

	confirmed := 0
	got := make(map[string]bool, len(fr.Cycles))
	for ci, cyc := range fr.Cycles {
		got[cyc.Key()] = mr.Reports[ci].Confirmed()
		if mr.Reports[ci].Confirmed() {
			confirmed++
		}
	}
	for k, key := range e.Keys {
		isConfirmed, found := got[key]
		if !found {
			return fmt.Errorf("%s: manifest key %d is not a candidate", e.File, k)
		}
		if e.Confirmed[k] && !isConfirmed {
			return fmt.Errorf("%s: manifest key %d is confirmed in the manifest but not by ConfirmAll", e.File, k)
		}
	}

	c["programs"]++
	c["find.attempts"] += fr.Attempts
	c["find.completed_runs"] += fr.CompletedRuns
	c["candidates"] += len(fr.Cycles)
	c["false_positives"] += len(fr.FalsePositives)
	c["observed_deadlocks"] += len(fr.ObservedDeadlocks)
	c["executions"] += fr.Attempts + mr.Executions + 2*len(witnesses)
	c["confirm.executions"] += mr.Executions
	c["confirm.deadlocked"] += mr.Deadlocked
	c["confirm.unmatched"] += mr.Unmatched
	c["thrashes"] += mr.Thrashes
	c["yields"] += mr.Yields
	c["confirmed"] += confirmed
	c["witnesses"] += len(witnesses)
	c["steps"] += steps
	c["deadlocks_found"] += confirmed
	if tr != nil {
		for _, r := range runs {
			c["pauses"] += r.Pauses
		}
	}
	return nil
}

// renderCorpus writes the report `dlfuzz` prints for a program, then
// each witness as `dlfuzz replay` renders it.
func renderCorpus(w io.Writer, file string, fr *dlfuzz.FindReport, mr *dlfuzz.MultiReport, witnesses []*obs.Witness) {
	fmt.Fprintf(w, "== %s: Phase I (iGoodlock) ==\n", file)
	fmt.Fprintf(w, "dependency relation: %d entries (observation seed %d)\n", fr.Deps, fr.Seed)
	fmt.Fprintf(w, "observation campaign: %d of %d runs completed, %d raw deps merged to %d\n",
		fr.CompletedRuns, fr.ObservationRuns, fr.RawDeps, fr.Deps)
	fmt.Fprintf(w, "potential deadlock cycles: %d (+%d provably false by happens-before)\n",
		len(fr.Cycles), len(fr.FalsePositives))
	for i, cyc := range fr.Cycles {
		fmt.Fprintf(w, "  cycle %d: %s\n", i+1, cyc)
	}
	fmt.Fprintf(w, "campaign: %d executions, %d deadlocked, %d unmatched\n",
		mr.Executions, mr.Deadlocked, mr.Unmatched)
	for i, rep := range mr.Reports {
		status := "NOT CONFIRMED"
		if rep.Confirmed() {
			status = "REAL DEADLOCK"
		}
		fmt.Fprintf(w, "cycle %d: %s  prob=%.2f  deadlocked=%d/%d  avg-thrash=%.2f\n",
			i+1, status, rep.Probability(), rep.Deadlocked, rep.Runs, rep.AvgThrashes())
		if wit := rep.Witness(); wit != nil {
			fmt.Fprintf(w, "  witness: %s\n", wit)
		}
	}
	for _, wit := range witnesses {
		report.WriteWitness(w, wit)
	}
}

func (b *corpusBench) layers(tr *tracer, c counts, m values) error {
	bodies := make([]func(*sched.Ctx), len(b.programs))
	for i, p := range b.programs {
		bodies[i] = p.Body()
	}
	if err := probeLang(b.srcs, m); err != nil {
		return err
	}
	if err := probeSched(bodies, b.o.seed, 20, b.spec.MaxSteps, true, m); err != nil {
		return err
	}
	if err := probePhase1(bodies, b.spec.Runs, b.spec.Seed, b.spec.MaxSteps, b.spec.K, b.o.workers, m); err != nil {
		return err
	}
	m["campaign.confirm_ms.p50"] = quantile(tr.durations("confirm"), 0.5) / 1e6
	m["obs.capture_ms.p50"] = quantile(tr.durations("capture"), 0.5) / 1e6
	m["obs.replay_ms.p50"] = quantile(tr.durations("replay"), 0.5) / 1e6
	m["report.render_us.p50"] = quantile(tr.durations("render"), 0.5) / 1e3
	return b.replayCampaigns(bodies, m)
}

// replayCampaigns re-runs every execution of each program's traced
// ConfirmAll campaign through fuzzer.Runner.Run, with the campaign's
// exact (target, scheduler seed) pairs, and requires the per-cycle sums
// to equal ConfirmAll's reproduced and cross-match counts. It then
// times the same campaigns serially and at the worker count, for the
// merge share and the scaling.
func (b *corpusBench) replayCampaigns(bodies []func(*sched.Ctx), m values) error {
	cfg := b.fuzzerConfig()
	runner := fuzzer.NewRunner()
	var (
		execs                                []float64
		replayNs, steps                      float64
		pauses, thrashes, yields, reproduced int
		serialNs, parallelNs                 float64
	)
	for i, tc := range b.traced {
		repro := make([]int, len(tc.cycles))
		cross := make([]int, len(tc.cycles))
		for _, rec := range tc.runs {
			start := time.Now()
			r := runner.Run(bodies[i], tc.cycles[rec.Target], cfg, rec.SchedSeed, b.spec.MaxSteps)
			ns := float64(time.Since(start).Nanoseconds())
			execs = append(execs, ns/1e3)
			replayNs += ns
			steps += float64(r.Result.Steps)
			pauses += r.Stats.Pauses
			thrashes += r.Stats.Thrashes
			yields += r.Stats.Yields
			if r.Result.Steps != rec.Steps || r.Reproduced != rec.Reproduced ||
				r.Stats.Pauses != rec.Pauses || r.Stats.Thrashes != rec.Thrashes {
				return fmt.Errorf("%s: replay of seed %d diverged from the campaign's run", b.manifest.Entries[i].File, rec.Seed)
			}
			if r.Reproduced {
				reproduced++
				repro[rec.Target]++
			}
			if r.Result.Outcome != sched.Deadlock {
				continue
			}
			for ci, cyc := range tc.cycles {
				if ci != rec.Target && runner.MatchesCycle(r.Result.Deadlock, cyc, cfg) {
					cross[ci]++
				}
			}
		}
		for ci, rep := range tc.report.Reports {
			if rep.Reproduced != repro[ci] || rep.CrossMatches != cross[ci] {
				return fmt.Errorf("%s: cycle %d: replay gives reproduced=%d cross=%d, ConfirmAll gave %d and %d",
					b.manifest.Entries[i].File, ci+1, repro[ci], cross[ci], rep.Reproduced, rep.CrossMatches)
			}
		}

		start := time.Now()
		dlfuzz.ConfirmAll(bodies[i], tc.cycles, b.confirmOptions(tc.ranks, 1))
		serialNs += float64(time.Since(start).Nanoseconds())
		start = time.Now()
		dlfuzz.ConfirmAll(bodies[i], tc.cycles, b.confirmOptions(tc.ranks, scalingWorkers()))
		parallelNs += float64(time.Since(start).Nanoseconds())
	}
	m["fuzzer.exec_us.p50"] = quantile(execs, 0.5)
	m["fuzzer.exec_us.p99"] = quantile(execs, 0.99)
	m["fuzzer.ns_per_step"] = ratio(replayNs, steps)
	n := float64(len(execs))
	m["fuzzer.pauses_per_exec"] = ratio(float64(pauses), n)
	m["fuzzer.thrashes_per_exec"] = ratio(float64(thrashes), n)
	m["fuzzer.yields_per_exec"] = ratio(float64(yields), n)
	m["fuzzer.reproduced_ratio"] = ratio(float64(reproduced), n)
	m["campaign.merge_frac"] = 1 - ratio(replayNs, serialNs)
	m["campaign.scaling"] = ratio(serialNs, parallelNs)
	return nil
}
