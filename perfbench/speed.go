package main

import (
	"runtime/metrics"
	"time"
)

// The host this benchmark runs on is shared, and its speed drifts with
// the other tenants' load: on the 2-core VM the benchmark was defined
// on, one workload's throughput moved by 40% within five minutes, with
// no change to the code. A run therefore also measures the host's
// current speed, by timing a fixed reference unit of work between
// verdicts, and reports its timing metrics at the nominal speed: each
// time is scaled by refNominalNs over the run's median reference time.
// The reference work is plain Go that calls nothing of dlfuzz, so a
// change to dlfuzz moves the reported figures and never the scale.
const (
	// refNominalNs is about the reference unit's time on the defining
	// host (Intel Xeon, 2 vCPUs, go1.24.0) at its quietest; only the
	// ratio of two runs' figures matters, so its exact value does not.
	refNominalNs = 250e3
	// refEvery is how often a run times the reference unit, which
	// then takes under 1% of the run.
	refEvery = 50 * time.Millisecond
)

// refSink keeps the reference unit's result live.
var refSink int

// refUnit is one unit of reference work, in the proportions a
// verdict's work comes in: goroutine handoffs over unbuffered channels
// (the scheduler's cross-grants), map updates and small allocations.
func refUnit() {
	ping, pong := make(chan int), make(chan int)
	done := make(chan struct{})
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(done)
	}()
	m := make(map[int]int, 64)
	var keep [][]int
	x := 0
	for i := 0; i < 200; i++ {
		ping <- i
		x += <-pong
		for j := 0; j < 16; j++ {
			m[(i*31+j)&127] += j
			if j&3 == 0 {
				keep = append(keep, make([]int, 8))
			}
		}
		if len(keep) > 64 {
			keep = keep[:0]
		}
	}
	close(ping)
	<-done
	refSink += x + len(m)
}

// speedProbe times the reference unit at most once per refEvery, and
// counts the heap allocations the units make, which are not the
// workload's.
type speedProbe struct {
	last   time.Time
	ns     []float64
	allocs uint64
}

// tick times the reference unit if refEvery has passed since it last
// did. A nil probe does nothing.
func (p *speedProbe) tick() {
	if p == nil || time.Since(p.last) < refEvery {
		return
	}
	a0 := mallocs()
	start := time.Now()
	refUnit()
	p.last = time.Now()
	p.allocs += mallocs() - a0
	p.ns = append(p.ns, float64(p.last.Sub(start).Nanoseconds()))
}

// mallocs is the process's heap allocations so far, counted as
// runtime.MemStats.Mallocs counts them, without stopping the world.
func mallocs() uint64 {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/tiny/allocs:objects"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

// slowdown is the run's median reference time over the nominal one:
// above 1 when the host was slower than nominal.
func (p *speedProbe) slowdown() float64 {
	return quantile(p.ns, 0.5) / refNominalNs
}
