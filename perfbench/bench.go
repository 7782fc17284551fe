package main

import (
	"bufio"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// counts are a pass's deterministic counters: pure functions of the
// workload, its seed and the code, identical at every worker count.
// Every workload fills "steps", "executions" and "deadlocks_found".
type counts map[string]int

// values maps metric names to measured values.
type values map[string]float64

// A workload is a fixed list of programs, each brought to a verdict by
// the public-API calls of one user path.
type workload interface {
	// setup loads or generates and parses every input.
	setup() error
	// size is the number of programs in one pass.
	size() int
	// verdict brings program i to a verdict, checks it against the
	// expected answer and adds its deterministic counts to c. A non-nil
	// tracer records a span around every public call.
	verdict(i int, tr *tracer, c counts) error
	// layers runs the traced run's per-layer probes on the workload's
	// own programs, after at least one traced pass whose counts are c.
	// An error means a cross-check failed.
	layers(tr *tracer, c counts, m values) error
}

// newWorkload resolves a workload name.
func newWorkload(name string, o options) (workload, error) {
	switch name {
	case "corpus":
		return &corpusBench{o: o}, nil
	case "observe":
		return &observeBench{o: o}, nil
	case "blocking":
		return &blockingBench{o: o}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want corpus, observe or blocking)", name)
}

// minPasses is the fewest passes a run times, so each program's median
// verdict time has several samples.
const minPasses = 5

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish fills the result's metrics from m for every spec, in spec
// order, and prints them one per line.
func (r *result) finish(specs []metricSpec, m values, out io.Writer) {
	r.Metrics = make(map[string]metricValue, len(specs))
	for _, s := range specs {
		r.Metrics[s.Name] = metricValue{Value: m[s.Name], Unit: s.Unit}
		fmt.Fprintf(out, "metric %-32s %14.6g %s\n", s.Name, m[s.Name], s.Unit)
	}
}

// runPass brings every program to a verdict once, in order. It returns
// the pass's counts and the number of failed verdicts; failures are
// described on log. With lat non-nil program i's verdict time in ms is
// appended to lat[i]. The probe, when non-nil, gets a tick after every
// verdict.
func runPass(w workload, tr *tracer, pass int, lat [][]float64, probe *speedProbe, log io.Writer) (counts, int) {
	c := counts{}
	failed := 0
	for i := 0; i < w.size(); i++ {
		if tr != nil {
			tr.trace = pass*w.size() + i + 1
		}
		start := time.Now()
		tr.begin("program")
		err := safeVerdict(w, i, tr, c)
		tr.end()
		if lat != nil {
			lat[i] = append(lat[i], float64(time.Since(start).Nanoseconds())/1e6)
		}
		probe.tick()
		if err != nil {
			failed++
			fmt.Fprintf(log, "FAIL program %d: %v\n", i, err)
		}
	}
	return c, failed
}

// safeVerdict is w.verdict with a panic reported as a failed verdict.
func safeVerdict(w workload, i int, tr *tracer, c counts) (err error) {
	depth := 0
	if tr != nil {
		depth = len(tr.open)
	}
	defer func() {
		if r := recover(); r != nil {
			for tr != nil && len(tr.open) > depth {
				tr.end()
			}
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return w.verdict(i, tr, c)
}

// medianSetup times w.setup: 21 repetitions, each calling setup until
// 50ms have passed, and returns the median per-call time in seconds.
// Each repetition starts from a collected heap, as a user's set-up
// starts from a fresh process's.
func medianSetup(w workload) (float64, error) {
	const reps, minRep = 21, 50 * time.Millisecond
	per := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		n := 0
		runtime.GC()
		start := time.Now()
		for n == 0 || time.Since(start) < minRep {
			if err := w.setup(); err != nil {
				return 0, err
			}
			n++
		}
		per = append(per, time.Since(start).Seconds()/float64(n))
	}
	return quantile(per, 0.5), nil
}

// timedRun is the untraced run: set-up, then whole passes over the
// program list until the run's seconds have passed and at least
// minPasses passes were timed, then the set-up timing. Every pass must
// repeat the first pass's counts exactly.
//
// Rates and verdict-time quantiles are taken at each program's median
// verdict time over the passes: a pass is the same executions every
// time, so the median is what a program's verdict costs, and a burst
// of load from outside the process during some passes does not move
// it. The quantiles are over programs, each counted once: a quantile of
// all timed verdicts pooled falls between two programs' samples
// wherever the programs are few, and then jumps between them with the
// noise. Times are reported at the host's nominal speed (see speed.go);
// the figures as timed are printed before them.
func timedRun(w workload, o options, out, log io.Writer) (*result, error) {
	if err := w.setup(); err != nil {
		return nil, err
	}
	r := &result{Correct: true}
	var (
		lat   = make([][]float64, w.size())
		probe = &speedProbe{}
		first counts
		total = counts{}
		ms0   runtime.MemStats
		ms1   runtime.MemStats
	)
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	passes := 0
	for passes < minPasses || time.Since(start) < o.seconds {
		c, failed := runPass(w, nil, passes, lat, probe, log)
		r.Attempted += w.size()
		r.Failed += failed
		if passes == 0 {
			first = c
		} else if !maps.Equal(c, first) {
			r.Correct = false
			fmt.Fprintf(log, "FAIL pass %d counts differ from pass 0: %v vs %v\n", passes, c, first)
		}
		for k, v := range c {
			total[k] += v
		}
		passes++
	}
	elapsed := time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)
	if r.Failed > 0 {
		r.Correct = false
	}

	medians := make([]float64, len(lat))
	medianPassMs := 0.0
	for i, xs := range lat {
		medians[i] = quantile(xs, 0.5)
		medianPassMs += medians[i]
	}
	medianPassS := medianPassMs / 1e3

	printJSONLine(out, "counts", first)
	fmt.Fprintf(out, "passes %d in %.3fs, median pass %.4fs, verdicts %d, verdict quantiles over %d per-program medians\n",
		passes, elapsed, medianPassS, passes*w.size(), len(medians))
	// Peak RSS is read before set-up is timed: its repetitions churn
	// garbage no user run makes.
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	setupS, err := medianSetup(w)
	if err != nil {
		return nil, err
	}
	slow := probe.slowdown()
	p50, p90 := quantile(medians, 0.5), quantile(medians, 0.9)
	fmt.Fprintf(out, "host slowdown %.4f (reference unit %.1fus, median of %d, nominal %.0fus); as timed: setup_s %.6g, programs_per_s %.6g, verdict_ms.p50 %.6g, verdict_ms.p90 %.6g\n",
		slow, slow*refNominalNs/1e3, len(probe.ns), refNominalNs/1e3, setupS, float64(w.size())/medianPassS, p50, p90)
	m := values{
		"setup_s":         setupS / slow,
		"programs_per_s":  float64(w.size()) / medianPassS * slow,
		"steps_per_s":     float64(first["steps"]) / medianPassS * slow,
		"verdict_ms.p50":  p50 / slow,
		"verdict_ms.p90":  p90 / slow,
		"allocs_per_step": ratio(float64(ms1.Mallocs-ms0.Mallocs-probe.allocs), float64(total["steps"])),
		"peak_rss_mb":     rss,
		"deadlocks_found": float64(first["deadlocks_found"]),
	}
	r.finish(endToEnd, m, out)
	return r, nil
}

// tracedRun is the traced run: after set-up and a warm-up pass it
// alternates an untraced and a traced pass until the run's seconds have
// passed (the pairs give the tracing overhead, and the untraced passes
// the runtime's own counters), then runs the workload's per-layer
// probes, writes the spans to spansPath and reports the per-layer
// metrics.
func tracedRun(w workload, o options, spansPath string, out, log io.Writer) (*result, error) {
	if err := w.setup(); err != nil {
		return nil, err
	}
	r := &result{Correct: true}
	tr := newTracer()
	m := values{}
	var (
		plainNs, tracedNs int64
		firstTraced       counts
		execs             int
		mallocs           uint64
		gcCPU, allCPU     float64
	)
	// A warm-up pass first: the first pass over a program also compiles
	// it, which would bias the untraced side of the first pair.
	firstPlain, failed := runPass(w, nil, 0, nil, nil, log)
	r.Attempted += w.size()
	r.Failed += failed
	start := time.Now()
	for pass := 1; pass == 1 || time.Since(start) < o.seconds; pass++ {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		gc0, all0 := cpuSeconds()
		t0 := time.Now()
		c, failed := runPass(w, nil, pass, nil, nil, log)
		plainNs += time.Since(t0).Nanoseconds()
		gc1, all1 := cpuSeconds()
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
		gcCPU += gc1 - gc0
		allCPU += all1 - all0
		execs += c["executions"]

		t0 = time.Now()
		ct, failedTraced := runPass(w, tr, pass, nil, nil, log)
		tracedNs += time.Since(t0).Nanoseconds()

		r.Attempted += 2 * w.size()
		r.Failed += failed + failedTraced
		if pass == 1 {
			firstTraced = ct
		}
		if !maps.Equal(c, firstPlain) || !maps.Equal(ct, firstTraced) {
			r.Correct = false
			fmt.Fprintf(log, "FAIL pass %d counts differ from pass 0\n", pass)
		}
	}
	m["bench.trace_overhead_frac"] = ratio(float64(tracedNs), float64(plainNs)) - 1
	m["runtime.allocs_per_exec"] = ratio(float64(mallocs), float64(execs))
	m["runtime.gc_cpu_frac"] = ratio(gcCPU, allCPU)

	verdicts := float64(len(tr.durations("program")))
	self := tr.selfNs()
	var selfTotal int64
	for _, ns := range self {
		selfTotal += ns
	}
	for _, name := range selfSpans {
		m["self."+name+"_ms"] = ratio(float64(self[name])/1e6, verdicts)
	}
	if err := w.layers(tr, firstTraced, m); err != nil {
		r.Correct = false
		fmt.Fprintln(log, "FAIL per-layer cross-check:", err)
	}
	if err := tr.write(spansPath); err != nil {
		return nil, err
	}
	if r.Failed > 0 {
		r.Correct = false
	}

	printJSONLine(out, "counts", firstTraced)
	fmt.Fprintf(out, "spans %d written to %s\n", len(tr.spans), spansPath)
	for _, name := range selfSpans {
		if self[name] > 0 {
			fmt.Fprintf(out, "self %-10s %6.2f%% of traced verdict time\n", name, 100*ratio(float64(self[name]), float64(selfTotal)))
		}
	}
	r.finish(perLayer, m, out)
	return r, nil
}

// cpuSeconds reads the runtime's estimates of GC CPU time and of all
// CPU time available to the process so far.
func cpuSeconds() (gc, all float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
