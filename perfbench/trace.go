package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Name is "<layer>.<call>"; the layer
// prefix is one of the repository's modules (opt, fdb, fbuild, fplan, frep,
// delta, wire, store), or "bench" for the benchmark's own request roots.
// Start and End are nanoseconds since the tracer's epoch; Parent is the index
// of the enclosing span, -1 for a root; spans of one request share Req.
type span struct {
	Name       string
	Start, End int64
	Parent     int32
	Req        uint32
}

// tracer records spans into memory allocated up front, so recording never
// allocates; spans beyond the capacity are counted and dropped. A nil
// *tracer records nothing, which is how the end-to-end run keeps tracing
// off. It is safe for concurrent use.
type tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []span
	dropped int
}

// spanCapacity is the span memory of a traced phase: 25 s of the busiest
// workload records about 75k spans.
const spanCapacity = 1 << 18

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// reserve grows the span memory to hold n spans, so that a traced phase
// records without allocating while the untraced phase before it carries
// only the set-up spans.
func (t *tracer) reserve(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cap(t.spans) < n {
		t.spans = append(make([]span, 0, n), t.spans...)
	}
}

// begin opens a span starting now and returns its index, or -1 when the
// tracer is nil or full.
func (t *tracer) begin(name string, parent int32, req uint32) int32 {
	if t == nil {
		return -1
	}
	return t.beginAt(name, parent, req, time.Now())
}

// beginAt opens a span with an explicit start time.
func (t *tracer) beginAt(name string, parent int32, req uint32, start time.Time) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.epoch)), End: -1, Parent: parent, Req: req})
	return int32(len(t.spans) - 1)
}

// record adds a span that has already ended.
func (t *tracer) record(name string, parent int32, req uint32, start, end time.Time) {
	if i := t.beginAt(name, parent, req, start); i >= 0 {
		t.mu.Lock()
		t.spans[i].End = int64(end.Sub(t.epoch))
		t.mu.Unlock()
	}
}

// end closes span i now.
func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// rename relabels span i once the call it wraps has told which layer did
// the work (a plan-cache lookup that missed and planned, for example).
func (t *tracer) rename(i int32, name string) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].Name = name
	t.mu.Unlock()
}

// layerOf returns the layer prefix of a span name.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns, for each span, its duration minus the union of its
// children's intervals (clipped to the span), so overlapping children are
// counted once. Spans left open count as zero-length.
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && int(s.Parent) < len(spans) {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		ivs = ivs[:0]
		for _, c := range children[i] {
			cs := spans[c]
			lo, hi := max(cs.Start, s.Start), min(cs.End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, curLo, curHi int64
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curLo, curHi, open = v.lo, v.hi, true
			case v.lo <= curHi:
				curHi = max(curHi, v.hi)
			default:
				covered += curHi - curLo
				curLo, curHi = v.lo, v.hi
			}
		}
		if open {
			covered += curHi - curLo
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerShares attributes the time of the root spans named root to layers:
// each span's self time is charged to its layer, and the totals are divided
// by the summed root durations. When tailOnly is set only roots at or
// above the 99th percentile root duration count.
func layerShares(spans []span, self []int64, root string, tailOnly bool) (map[string]float64, int) {
	rootOf := make([]int32, len(spans))
	var durs []int64
	for i, s := range spans {
		rootOf[i] = int32(i)
		if s.Parent >= 0 {
			rootOf[i] = rootOf[s.Parent]
		} else if s.Name == root && s.End >= s.Start {
			durs = append(durs, s.End-s.Start)
		}
	}
	sort.Slice(durs, func(a, b int) bool { return durs[a] < durs[b] })
	cut := int64(0)
	if tailOnly {
		cut = percentile(durs, 99)
	}
	in := func(r int32) bool {
		s := spans[r]
		return s.Name == root && s.End >= s.Start && s.End-s.Start >= cut
	}
	var total int64
	byLayer := map[string]int64{}
	n := 0
	for i, s := range spans {
		r := rootOf[i]
		if !in(r) {
			continue
		}
		if int32(i) == r {
			total += s.End - s.Start
			n++
		}
		byLayer[layerOf(s.Name)] += self[i]
	}
	out := map[string]float64{}
	for l, v := range byLayer {
		if total > 0 {
			out[l] = float64(v) / float64(total)
		}
	}
	return out, n
}

// formatShares renders layer shares in descending order.
func formatShares(sh map[string]float64) string {
	type kv struct {
		k string
		v float64
	}
	var kvs []kv
	for k, v := range sh {
		kvs = append(kvs, kv{k, v})
	}
	sort.Slice(kvs, func(a, b int) bool { return kvs[a].v > kvs[b].v })
	var b strings.Builder
	for i, e := range kvs {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%.3f", e.k, e.v)
	}
	return b.String()
}

// writeSpans writes the recorded spans, with their self times, as JSON.
func (t *tracer) writeSpans(path, workload string, seed int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type rec struct {
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Self   int64  `json:"self_ns"`
		Parent int32  `json:"parent"`
		Req    uint32 `json:"req"`
	}
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"dropped\":%d,\"spans\":[\n", workload, seed, t.dropped)
	for i, s := range t.spans {
		b, err := json.Marshal(rec{s.Name, s.Start, s.End, self[i], s.Parent, s.Req})
		if err != nil {
			f.Close()
			return err
		}
		if i > 0 {
			w.WriteString(",\n")
		}
		w.Write(b)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
