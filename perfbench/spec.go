package main

import (
	"encoding/json"
	"io"
)

// metricSpec declares one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics have none.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func bound(b float64) *float64 { return &b }

// endToEnd are the metrics a user of dlfuzz sees, reported by every
// untraced run.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", bound(0.25)},
	{"programs_per_s", "1/s", "higher", bound(0.25)},
	{"steps_per_s", "1/s", "higher", bound(0.25)},
	{"verdict_ms.p50", "ms", "lower", bound(0.25)},
	{"verdict_ms.p90", "ms", "lower", bound(0.25)},
	{"allocs_per_step", "allocs/step", "lower", bound(0.2)},
	{"peak_rss_mb", "MB", "lower", bound(0.2)},
	{"deadlocks_found", "count", "higher", bound(0.1)},
}

// selfSpans are the span names whose self time the traced run reports,
// as self.<name>_ms: mean self time per program verdict.
var selfSpans = []string{"program", "parse", "compile", "find", "confirm", "capture", "replay", "render",
	"observe", "igoodlock", "sync", "hb_filter", "blocking"}

// perLayer are the metrics of single layers, reported by every traced
// run. A layer a workload's path does not call reports 0 there.
var perLayer = append([]metricSpec{
	{"lang.parse_us.p50", "us", "lower", nil},
	{"lang.compile_us.p50", "us", "lower", nil},
	{"sched.exec_us.p50", "us", "lower", nil},
	{"sched.exec_us.p99", "us", "lower", nil},
	{"sched.ns_per_step", "ns", "lower", nil},
	{"sched.exec_us.deadlock.p50", "us", "lower", nil},
	{"sched.exec_us.stall.p50", "us", "lower", nil},
	{"sched.exec_us.completed.p50", "us", "lower", nil},
	{"fuzzer.exec_us.p50", "us", "lower", nil},
	{"fuzzer.exec_us.p99", "us", "lower", nil},
	{"fuzzer.ns_per_step", "ns", "lower", nil},
	{"fuzzer.pauses_per_exec", "count", "lower", nil},
	{"fuzzer.thrashes_per_exec", "count", "lower", nil},
	{"fuzzer.yields_per_exec", "count", "lower", nil},
	{"fuzzer.reproduced_ratio", "ratio", "higher", nil},
	{"fuzzer.blocking_exec_us.p50", "us", "lower", nil},
	{"fuzzer.blocking_exec_us.p99", "us", "lower", nil},
	{"campaign.confirm_ms.p50", "ms", "lower", nil},
	{"campaign.merge_frac", "ratio", "lower", nil},
	{"campaign.scaling", "ratio", "higher", nil},
	{"campaign.blocking_ms.p50", "ms", "lower", nil},
	{"campaign.blocked_ratio", "ratio", "higher", nil},
	{"analysis.observe_ms.p50", "ms", "lower", nil},
	{"analysis.exec_us.p50", "us", "lower", nil},
	{"analysis.observer_ns_per_step", "ns", "lower", nil},
	{"analysis.completed_ratio", "ratio", "higher", nil},
	{"predict.igoodlock_us.p50", "us", "lower", nil},
	{"predict.sync_us.p50", "us", "lower", nil},
	{"predict.candidates", "count", "higher", nil},
	{"hb.filter_us.p50", "us", "lower", nil},
	{"obs.capture_ms.p50", "ms", "lower", nil},
	{"obs.replay_ms.p50", "ms", "lower", nil},
	{"report.render_us.p50", "us", "lower", nil},
	{"runtime.allocs_per_exec", "count", "lower", nil},
	{"runtime.gc_cpu_frac", "ratio", "lower", nil},
	{"bench.trace_overhead_frac", "ratio", "lower", nil},
}, selfMetrics()...)

func selfMetrics() []metricSpec {
	out := make([]metricSpec, len(selfSpans))
	for i, name := range selfSpans {
		out[i] = metricSpec{"self." + name + "_ms", "ms", "lower", nil}
	}
	return out
}

// workloadSpec names one workload and records why it was chosen.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadSpecs = []workloadSpec{
	{"corpus", "24 committed lock-dense corpus programs through parse, Find, ConfirmAll, witness capture/replay and render: VM, scheduler handoff, fuzzer policy and campaign merge work"},
	{"observe", "512 generated medium programs through parse, ObserveRelation, both finders and the hb filter: compile, observers, retry loop and finders work; no Phase II"},
	{"blocking", "FindBlocking at bias 0.7 over the 11 Go-coded blocking programs: channel and WaitGroup rendezvous and stall classification; no VM, Phase I or fuzzer.Policy"},
}

// runSeconds is how long one run measures.
const runSeconds = 30

// describe writes the BENCHMARK.json the repository root carries.
func describe(w io.Writer) error {
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
