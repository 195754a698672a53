package main

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{
		{1, 10}, {10, 10}, {11, 20}, {50, 50}, {51, 60}, {90, 90}, {99, 100}, {100, 100},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(p=%g) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile([]int64{7}, 99); got != 7 {
		t.Errorf("single sample p99 = %d, want 7", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %d, want 0", got)
	}
	// 1000 samples 1..1000: the p99 is the 990th, so ten samples lie beyond it.
	var big []int64
	for i := int64(1); i <= 1000; i++ {
		big = append(big, i)
	}
	if got := percentile(big, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %d, want 990", got)
	}
}

func TestWindowMedianIgnoresOneBurst(t *testing.T) {
	w := newWindowed(10)
	for i := 0; i < windows; i++ {
		d := time.Millisecond
		if i == 4 {
			d = 50 * time.Millisecond
		}
		for k := 0; k < 300; k++ {
			w.add(time.Duration(i)*w.width+time.Duration(k), d)
		}
	}
	m := w.timing("read")
	// p50 over five pairs of windows: the burst moves one pair only.
	if m[0].Value != 1 {
		t.Errorf("p50 = %g ms, want 1", m[0].Value)
	}
	// 3000 samples are too few for three p99 groups: the whole phase's p99
	// sees the burst.
	if m[1].Value != 50 {
		t.Errorf("p99 = %g ms, want 50", m[1].Value)
	}
	if r := w.rate("read_qps"); r.Value != 300 {
		t.Errorf("rate = %g/s, want 300", r.Value)
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{Name: "bench.read", Start: 0, End: 100, Parent: -1},
		{Name: "fbuild.a", Start: 10, End: 40, Parent: 0},
		{Name: "frep.b", Start: 30, End: 60, Parent: 0},  // overlaps a
		{Name: "frep.c", Start: 80, End: 120, Parent: 0}, // runs past the parent
		{Name: "opt.d", Start: 15, End: 35, Parent: 1},   // grandchild
		{Name: "bench.read", Start: 200, End: 210, Parent: -1},
	}
	self := selfTimes(spans)
	// Children cover [10,60] and [80,100] of the root: 70 of its 100.
	want := []int64{30, 10, 30, 40, 20, 10}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] = %d, want %d", i, self[i], want[i])
		}
	}
	shares, n := layerShares(spans, self, "bench.read", false)
	if n != 2 {
		t.Fatalf("roots = %d, want 2", n)
	}
	// 110 ns of root time: bench 30+10, fbuild 10, opt 20, frep 30+40.
	for l, w := range map[string]float64{"bench": 40.0 / 110, "fbuild": 10.0 / 110, "opt": 20.0 / 110, "frep": 70.0 / 110} {
		if d := shares[l] - w; d > 1e-9 || d < -1e-9 {
			t.Errorf("share[%s] = %g, want %g", l, shares[l], w)
		}
	}
	if _, n := layerShares(spans, self, "bench.read", true); n != 1 {
		t.Errorf("tail roots = %d, want 1", n)
	}
}

func testConfig(t *testing.T, trace bool) config {
	return config{seed: 3, seconds: 0.4, trace: trace, outDir: t.TempDir(), setups: 2, log: io.Discard}
}

var (
	smallRetailer = retailerParams{scale: 1}
	smallAdhoc    = adhocParams{schemas: 2, shapes: 36, zipfS: 1, oracleCap: 2000}
	smallServe    = serveParams{scale: 1, rate: 200, writeEvery: 5, warmup: 0.2}
)

// checkOutcome asserts a clean run that reports every metric it must.
func checkOutcome(t *testing.T, o *outcome, trace bool) {
	t.Helper()
	if o.failed != 0 || o.attempted == 0 {
		t.Fatalf("attempted %d, failed %d: %v", o.attempted, o.failed, o.problems)
	}
	got := resultMetrics(o, trace)
	want := len(endToEnd)
	if trace {
		want = len(perLayer)
	}
	if len(got) != want {
		t.Fatalf("result line has %d metrics, want %d", len(got), want)
	}
	if !trace {
		// The gated metrics must never be 0; the printed-only ones, such as
		// read_slo_miss_frac, may be.
		for _, m := range o.e2e {
			if _, gated := got[m.Name]; gated && m.Value <= 0 {
				t.Errorf("%s = %g, want > 0", m.Name, m.Value)
			}
		}
	}
}

func TestSmokeRetailer(t *testing.T) {
	for _, trace := range []bool{false, true} {
		o, err := runRetailer(testConfig(t, trace), smallRetailer)
		if err != nil {
			t.Fatal(err)
		}
		checkOutcome(t, o, trace)
	}
}

func TestSmokeAdhoc(t *testing.T) {
	for _, trace := range []bool{false, true} {
		o, err := runAdhoc(testConfig(t, trace), smallAdhoc)
		if err != nil {
			t.Fatal(err)
		}
		checkOutcome(t, o, trace)
	}
}

func TestSmokeServe(t *testing.T) {
	for _, trace := range []bool{false, true} {
		o, err := runServe(testConfig(t, trace), smallServe)
		if err != nil {
			t.Fatal(err)
		}
		checkOutcome(t, o, trace)
		for _, m := range o.e2e {
			if m.Name == "write_p50_ms" && m.N == 0 {
				t.Error("no writes were timed")
			}
		}
	}
}

// TestWrongChecksumFailsRun corrupts the expected checksums of one
// statement: the run must count divergences, print correct=false and exit
// non-zero.
func TestWrongChecksumFailsRun(t *testing.T) {
	saved := workloads[0].run
	defer func() { workloads[0].run = saved }()
	workloads[0].run = func(cfg config) (*outcome, error) {
		return runRetailer(cfg, retailerParams{scale: 1, tamper: true})
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "retailer-read", "--seconds", "0.3", "--out-dir", t.TempDir()}, &stdout, &stderr)
	if code == 0 {
		t.Fatal("run with a wrong expected checksum exited 0")
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res struct {
		Correct   bool  `json:"correct"`
		Attempted int64 `json:"attempted"`
		Failed    int64 `json:"failed"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if res.Correct || res.Failed == 0 || res.Attempted <= res.Failed {
		t.Errorf("result %+v: want correct=false with some, not all, operations failed", res)
	}
	if !strings.Contains(stderr.String(), "checksum") {
		t.Errorf("stderr does not name the divergence: %q", stderr.String())
	}
}
