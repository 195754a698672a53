package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// metric is one reported figure: its value, unit and the number of samples
// it was computed from.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted: the smallest sample with at least p% of the samples at or below
// it. It returns 0 for an empty slice.
func percentile(sorted []int64, p float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// latencies collects durations in nanoseconds.
type latencies []int64

func (l *latencies) add(d time.Duration) { *l = append(*l, int64(d)) }

// sorted returns an ascending copy.
func (l latencies) sorted() []int64 {
	s := append([]int64(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// ms returns the p-th percentile in milliseconds.
func (l latencies) ms(p float64) float64 {
	return float64(percentile(l.sorted(), p)) / 1e6
}

// setupMetric is setup_s: the median of the set-up repetitions.
func setupMetric(ds []time.Duration) metric {
	s := make([]int64, len(ds))
	for i, d := range ds {
		s[i] = int64(d)
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return metric{Name: "setup_s", Value: float64(percentile(s, 50)) / 1e9, Unit: "s", N: len(ds)}
}

// heapLiveMB forces a collection and returns the live heap in MB (10^6
// bytes).
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// gcCounters reads the collector's cycle count and total stop-the-world
// pause time.
type gcCounters struct {
	cycles  uint32
	pauseNs uint64
}

func readGC() gcCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcCounters{cycles: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// gcMetrics returns the go.gc_cycles and go.gc_pause_ms deltas since from.
// The traced phase is the one measured: the untraced phase forces a
// collection per window to sample the live heap.
func gcMetrics(from gcCounters) []metric {
	to := readGC()
	return []metric{
		{Name: "go.gc_cycles", Value: float64(to.cycles - from.cycles), Unit: "count", N: 1},
		{Name: "go.gc_pause_ms", Value: float64(to.pauseNs-from.pauseNs) / 1e6, Unit: "ms", N: 1},
	}
}

// allocCounter reads the heap allocation counters through runtime/metrics,
// which does not stop the world, so it can bracket single calls.
type allocCounter struct{ samples []metrics.Sample }

func newAllocCounter() *allocCounter {
	return &allocCounter{samples: []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}}
}

// read returns the cumulative allocated objects and bytes.
func (a *allocCounter) read() (objects, bytes uint64) {
	metrics.Read(a.samples)
	return a.samples[0].Value.Uint64(), a.samples[1].Value.Uint64()
}

// checksum is an order-sensitive FNV-1a style hash over 64-bit words: two
// result streams agree on it only if they hold the same values in the same
// order (up to hash collisions).
type checksum struct {
	sum   uint64
	count int64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func newChecksum() checksum { return checksum{sum: fnvOffset} }

func (c *checksum) word(v uint64) {
	c.sum ^= v
	c.sum *= fnvPrime
}

func (c *checksum) str(s string) {
	for i := 0; i < len(s); i++ {
		c.sum ^= uint64(s[i])
		c.sum *= fnvPrime
	}
	c.word(uint64(len(s)))
}

// endRow closes one row, so that row boundaries are part of the hash.
func (c *checksum) endRow() {
	c.word(0x9e3779b97f4a7c15)
	c.count++
}

// unitOf returns the unit a per-layer metric is reported in.
func unitOf(name string) string {
	for _, p := range perLayer {
		if p.name == name {
			return p.unit
		}
	}
	return "ratio"
}

// ratio is a per-layer metric num/den, 0 when den is 0, with den as its
// sample count.
func ratio(name string, num, den float64) metric {
	v := 0.0
	if den != 0 {
		v = num / den
	}
	return metric{Name: name, Value: v, Unit: unitOf(name), N: int(den)}
}

// quantile is a per-layer timing metric: the p-th percentile of l in ms.
func quantile(name string, l latencies, p float64) metric {
	return metric{Name: name, Value: l.ms(p), Unit: "ms", N: len(l)}
}

// spanDurations returns the durations of the closed spans named name.
func spanDurations(tr *tracer, name string) latencies {
	var out latencies
	for _, s := range tr.spans {
		if s.Name == name && s.End >= s.Start {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// spanTimings returns base.p<p> metrics over the spans named name.
func spanTimings(tr *tracer, name, base string, ps ...float64) []metric {
	d := spanDurations(tr, name)
	var out []metric
	for _, p := range ps {
		out = append(out, quantile(fmt.Sprintf("%s.p%g", base, p), d, p))
	}
	return out
}

// setupRuns times a workload's set-ups; setup_s is the median of their
// durations. The first half run before the timed phase, and the last of
// those is the state the run uses. The rest run once the run is over, each
// released at once, so that the median samples the host's speed over the
// whole run rather than at one moment.
type setupRuns[T any] struct {
	n       int
	setup   func(keep bool) (T, error) // keep: the repetition the run uses
	release func(T)                    // may be nil
	ds      []time.Duration
}

// once collects garbage, so that no earlier garbage is charged to the
// set-up, and times one set-up.
func (r *setupRuns[T]) once(keep bool) (T, error) {
	runtime.GC()
	t0 := time.Now()
	s, err := r.setup(keep)
	r.ds = append(r.ds, time.Since(t0))
	return s, err
}

// before runs the first half of the set-ups, releasing each but the last,
// and returns the last.
func (r *setupRuns[T]) before() (T, error) {
	k := (r.n + 1) / 2
	for i := 0; ; i++ {
		s, err := r.once(i == k-1)
		if err != nil || i == k-1 {
			return s, err
		}
		if r.release != nil {
			r.release(s)
		}
	}
}

// after runs the rest of the set-ups, each released at once, and puts
// setup_s first among o's end-to-end metrics.
func (r *setupRuns[T]) after(o *outcome) error {
	for len(r.ds) < r.n {
		s, err := r.once(false)
		if err != nil {
			return err
		}
		if r.release != nil {
			r.release(s)
		}
	}
	o.e2e = append([]metric{setupMetric(r.ds)}, o.e2e...)
	return nil
}

// windows is the number of equal time windows a timed phase is split into.
const windows = 10

// windowed holds one phase's latencies split into equal time windows, so
// that figures are reported as the median over the windows: a burst of
// interference from outside the process moves one window, not the median.
type windowed struct {
	width time.Duration
	win   [windows]latencies
	heap  []float64 // live heap samples, MB
}

func newWindowed(seconds float64) *windowed {
	return &windowed{width: time.Duration(seconds * float64(time.Second) / windows)}
}

// add records latency d of an operation at offset from the phase start.
func (w *windowed) add(offset, d time.Duration) {
	i := int(offset / w.width)
	if i >= windows {
		i = windows - 1
	}
	w.win[i].add(d)
}

// sampleHeap records the live heap at each window boundary the phase has
// passed by offset. The closed loops call it between reads, so the forced
// collections it runs fall in no read's latency.
func (w *windowed) sampleHeap(offset time.Duration) {
	for len(w.heap) < windows-1 && offset >= time.Duration(len(w.heap)+1)*w.width {
		w.heap = append(w.heap, heapLiveMB())
	}
}

// heapMetric is heap_live_mb: the median of the window-boundary samples
// and one taken now, at the end of the phase.
func (w *windowed) heapMetric() metric {
	vs := append(append([]float64(nil), w.heap...), heapLiveMB())
	sort.Float64s(vs)
	return metric{Name: "heap_live_mb", Value: vs[len(vs)/2], Unit: "MB", N: len(vs)}
}

// all returns every latency of the phase.
func (w *windowed) all() latencies {
	var out latencies
	for _, l := range w.win {
		out = append(out, l...)
	}
	return out
}

func (w *windowed) n() int { return len(w.all()) }

// median returns the median over the windows of f(window).
func (w *windowed) median(f func(latencies) float64) float64 {
	var vs []float64
	for _, l := range w.win {
		vs = append(vs, f(l))
	}
	sort.Float64s(vs)
	return vs[windows/2]
}

// Each percentile rests on at least this many samples: 500 for the p50,
// and 2000 for the p99, so that 20 lie beyond it.
const (
	p50Samples = 500
	p99Samples = 2000
)

// percentileOverWindows returns the median over groups of adjacent windows
// of the group's p-th percentile in ms. A group holds enough windows for
// min samples; when that leaves fewer than three groups the percentile is
// the whole phase's.
func (w *windowed) percentileOverWindows(p float64, min int) float64 {
	n := w.n()
	g := windows
	if n > 0 {
		g = (min*windows + n - 1) / n
	}
	if g > windows/3 {
		return w.all().ms(p)
	}
	var vs []float64
	for i := 0; i+g <= windows; i += g {
		end := i + g
		if end+g > windows {
			end = windows // the last group takes the leftover windows
		}
		var l latencies
		for _, x := range w.win[i:end] {
			l = append(l, x...)
		}
		vs = append(vs, l.ms(p))
	}
	sort.Float64s(vs)
	return vs[len(vs)/2]
}

// timing returns name_p50_ms and name_p99_ms, each the median over groups
// of adjacent windows (see percentileOverWindows); N is the phase's sample
// count.
func (w *windowed) timing(name string) []metric {
	n := w.n()
	return []metric{
		{Name: name + "_p50_ms", Value: w.percentileOverWindows(50, p50Samples), Unit: "ms", N: n},
		{Name: name + "_p99_ms", Value: w.percentileOverWindows(99, p99Samples), Unit: "ms", N: n},
	}
}

// rate returns the median over the windows of operations per second.
func (w *windowed) rate(name string) metric {
	secs := w.width.Seconds()
	return metric{Name: name, Value: w.median(func(l latencies) float64 { return float64(len(l)) / secs }), Unit: "1/s", N: w.n()}
}

// overhead is trace.overhead_frac: the traced phase's read p50 against the
// untraced phase's, as a fraction of the untraced.
func overhead(untraced, traced *windowed) metric {
	u := untraced.median(func(l latencies) float64 { return l.ms(50) })
	t := traced.median(func(l latencies) float64 { return l.ms(50) })
	m := ratio("trace.overhead_frac", t-u, u)
	m.N = traced.n()
	return m
}

// merge adds o's latencies to w, window by window.
func (w *windowed) merge(o *windowed) {
	for i := range w.win {
		w.win[i] = append(w.win[i], o.win[i]...)
	}
}
