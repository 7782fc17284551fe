package main

import (
	"bytes"
	"encoding/json"
	"io"
	"maps"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"dlfuzz/internal/sched"
)

// testOptions runs against the repository this package sits in.
func testOptions(seed int64, workers int) options {
	return options{root: "..", seed: seed, seconds: time.Second, workers: workers}
}

// onePass sets w up and returns its first pass's counts, failing the
// test on any failed verdict.
func onePass(t *testing.T, name string, o options) counts {
	t.Helper()
	w, err := newWorkload(name, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	c, failed := runPass(w, nil, 0, nil, nil, &log)
	if failed > 0 {
		t.Fatalf("%s: %d failed verdicts:\n%s", name, failed, log.String())
	}
	return c
}

// The deterministic counts repeat exactly across runs and between one
// campaign worker and two, at two workload seeds.
func TestCountsDeterministic(t *testing.T) {
	for _, name := range []string{"corpus", "observe", "blocking"} {
		for _, seed := range []int64{1, 2} {
			first := onePass(t, name, testOptions(seed, 2))
			if again := onePass(t, name, testOptions(seed, 2)); !maps.Equal(first, again) {
				t.Errorf("%s seed %d: counts differ across runs:\n%v\n%v", name, seed, first, again)
			}
			if serial := onePass(t, name, testOptions(seed, 1)); !maps.Equal(first, serial) {
				t.Errorf("%s seed %d: counts differ between 2 workers and 1:\n%v\n%v", name, seed, first, serial)
			}
			if first["deadlocks_found"] == 0 || first["steps"] == 0 || first["executions"] == 0 {
				t.Errorf("%s seed %d: empty counts %v", name, seed, first)
			}
		}
	}
}

// The traced run's cross-checks pass: the corpus replay reproduces
// ConfirmAll's per-cycle counts, and every layer the workload's path
// calls reports a measurement.
func TestTracedRun(t *testing.T) {
	want := map[string][]string{
		"corpus": {"fuzzer.exec_us.p50", "fuzzer.reproduced_ratio", "campaign.confirm_ms.p50",
			"obs.capture_ms.p50", "report.render_us.p50", "lang.compile_us.p50", "analysis.exec_us.p50"},
		"observe":  {"analysis.observe_ms.p50", "predict.sync_us.p50", "self.sync_ms", "lang.parse_us.p50"},
		"blocking": {"fuzzer.blocking_exec_us.p50", "campaign.blocked_ratio", "sched.exec_us.stall.p50"},
	}
	for name, nonzero := range want {
		if name == "observe" && testing.Short() {
			continue
		}
		o := testOptions(1, 2)
		w, err := newWorkload(name, o)
		if err != nil {
			t.Fatal(err)
		}
		var log bytes.Buffer
		res, err := tracedRun(w, o, t.TempDir()+"/spans.jsonl", io.Discard, &log)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed > 0 {
			t.Fatalf("%s: traced run incorrect:\n%s", name, log.String())
		}
		for _, s := range perLayer {
			if _, ok := res.Metrics[s.Name]; !ok {
				t.Errorf("%s: metric %s missing", name, s.Name)
			}
		}
		for _, metric := range nonzero {
			if res.Metrics[metric].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", name, metric, res.Metrics[metric].Value)
			}
		}
	}
}

// A verdict that misses its expected answer fails the run.
func TestGateRejectsWrongAnswers(t *testing.T) {
	o := testOptions(1, 2)
	cb := &corpusBench{o: o}
	if err := cb.setup(); err != nil {
		t.Fatal(err)
	}
	cb.manifest.Entries[0].Keys = append(cb.manifest.Entries[0].Keys, "no such cycle")
	if err := cb.verdict(0, nil, counts{}); err == nil || !strings.Contains(err.Error(), "not a candidate") {
		t.Errorf("corpus: missing manifest key not caught: %v", err)
	}

	// The replay cross-check catches a campaign whose per-cycle counts
	// the replayed executions do not add up to.
	tr := newTracer()
	if err := cb.setup(); err != nil {
		t.Fatal(err)
	}
	if err := cb.verdict(0, tr, counts{}); err != nil {
		t.Fatal(err)
	}
	cb.traced = cb.traced[:1]
	bodies := []func(*sched.Ctx){cb.programs[0].Body()}
	if err := cb.replayCampaigns(bodies, values{}); err != nil {
		t.Fatalf("untouched campaign: %v", err)
	}
	cb.traced[0].report.Reports[0].Reproduced++
	if err := cb.replayCampaigns(bodies, values{}); err == nil {
		t.Error("corpus: replay cross-check missed a wrong reproduced count")
	}

	bb := &blockingBench{o: o}
	if err := bb.setup(); err != nil {
		t.Fatal(err)
	}
	bb.programs[0].ExpectPartial, bb.programs[0].ExpectTotal = !bb.programs[0].ExpectPartial, !bb.programs[0].ExpectTotal
	if err := bb.verdict(0, nil, counts{}); err == nil {
		t.Error("blocking: verdict of the wrong kind not caught")
	}
}

// BENCHMARK.json at the repository root is what --describe prints, and
// it keeps the benchmark contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := describe(&buf); err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), committed) {
		t.Fatal("BENCHMARK.json is stale: regenerate it with `bash perfbench/run.sh --describe > BENCHMARK.json`")
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(committed, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want 6", len(doc))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !name.MatchString(s.Name) || !unit.MatchString(s.Unit) || seen[s.Name] {
			t.Errorf("bad or repeated metric %+v", s)
		}
		seen[s.Name] = true
		if s.Better != "lower" && s.Better != "higher" {
			t.Errorf("%s: better = %q", s.Name, s.Better)
		}
	}
	for _, s := range endToEnd {
		if s.Bound == nil || *s.Bound <= 0 || *s.Bound > 0.25 {
			t.Errorf("%s: bound out of (0, 0.25]", s.Name)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Error("too many metrics")
	}
	for _, w := range workloadSpecs {
		if !name.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("bad workload %+v", w)
		}
	}
}

// Usage and set-up errors exit 2 without printing a result.
func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "1"},
		{"--workload", "corpus", "--seconds", "0"},
		{"--workload", "corpus", "--seconds", "1", "--root", t.TempDir()},
	} {
		var out bytes.Buffer
		if code := run(args, &out, io.Discard); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if strings.Contains(out.String(), `"correct"`) {
			t.Errorf("%v: printed a result", args)
		}
	}
}

// The speed probe times at most one reference unit per refEvery, counts
// the unit's allocations, and scales by the median reference time.
func TestSpeedProbe(t *testing.T) {
	var none *speedProbe
	none.tick()
	p := &speedProbe{}
	p.tick()
	p.tick()
	if len(p.ns) != 1 {
		t.Fatalf("two ticks within %v timed %d units, want 1", refEvery, len(p.ns))
	}
	if p.allocs == 0 {
		t.Error("the reference unit's allocations were not counted")
	}
	p.ns = []float64{3 * refNominalNs, refNominalNs, 2 * refNominalNs}
	if got := p.slowdown(); got != 2 {
		t.Errorf("slowdown %v, want 2", got)
	}
}
