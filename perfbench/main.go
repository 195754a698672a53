// Command perfbench is the repository's end-to-end benchmark. It generates
// three seeded workloads in one process and drives them through the public
// surfaces of the engine (DB.Prepare, Stmt.Exec/ExecAgg, Result.Iter,
// DB.QueryAgg, DB.QuerySet, and wire.Client against an in-process
// wire.Server), checks every output, and prints each metric with its unit
// and sample count. The last line of standard output is one JSON object:
// the end-to-end metrics with --trace 0, the per-layer metrics of a separate
// traced phase with --trace 1. It exits non-zero on any divergence.
//
//	go run . --workload all --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and how they were sized.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// config holds the settings shared by every workload.
type config struct {
	seed    int64
	seconds float64 // length of each timed phase
	trace   bool    // also run a traced phase and report per-layer metrics
	outDir  string  // span files and the snapshot file go here
	setups  int     // set-up repetitions; setup_s is their median
	log     io.Writer
}

// outcome is one workload run's result.
type outcome struct {
	e2e       []metric
	layer     []metric
	attempted int64
	failed    int64
	problems  []string
}

// fail counts one failed, refused or divergent operation.
func (o *outcome) fail(format string, args ...interface{}) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// failedFrac is the failed_frac metric: failed over attempted operations.
func (o *outcome) failedFrac() metric {
	v := 0.0
	if o.attempted > 0 {
		v = float64(o.failed) / float64(o.attempted)
	}
	return metric{Name: "failed_frac", Value: v, Unit: "ratio", N: int(o.attempted)}
}

// endToEnd lists the gated end-to-end metrics (BENCHMARK.json end_to_end),
// which every workload reports. Workloads print more, with their units and
// sample counts, where the metric applies to them only.
var endToEnd = []string{"read_p50_ms", "read_p99_ms", "read_qps", "heap_live_mb", "setup_s"}

// perLayer lists the per-layer metrics (BENCHMARK.json per_layer) with
// their units. A layer that is not on a workload's path reports 0.
var perLayer = []struct{ name, unit string }{
	{"opt.prepare_ms.p50", "ms"}, {"opt.prepare_ms.p99", "ms"},
	{"opt.escalation_frac", "ratio"}, {"opt.budget_fallbacks", "count"}, {"opt.cost_mean", "singletons"},
	{"fdb.cache_hit_rate", "ratio"}, {"fdb.cache_hit_ms.p50", "ms"}, {"fdb.cache_miss_ms.p50", "ms"},
	{"fbuild.exec_param_ms.p50", "ms"}, {"fbuild.exec_param_ms.p99", "ms"},
	{"fbuild.allocs_per_exec", "count"}, {"fbuild.bytes_per_exec", "B"},
	{"fplan.exec_cached_ms.p50", "ms"},
	{"frep.retrieve_ms.p50", "ms"}, {"frep.retrieve_ms.p99", "ms"}, {"frep.ns_per_row", "ns"},
	{"frep.sorted_frac", "ratio"}, {"frep.agg_ms.p50", "ms"}, {"frep.setop_ms.p50", "ms"},
	{"frep.compression", "ratio"}, {"frep.singletons", "count"}, {"frep.flat_singletons", "count"},
	{"fdb.read_after_write_ms.p50", "ms"}, {"fdb.read_after_write_ms.p99", "ms"}, {"fdb.read_steady_ms.p50", "ms"},
	{"delta.batches_per_s", "1/s"},
	{"wire.server_read_p50_ms", "ms"}, {"wire.server_read_p99_ms", "ms"}, {"wire.server_write_p99_ms", "ms"},
	{"wire.wait_ms.p50", "ms"}, {"wire.decode_ms.p50", "ms"}, {"wire.resp_bytes_per_read", "B"},
	{"wire.shed", "count"}, {"wire.timeouts", "count"}, {"wire.gen_late_ms.p99", "ms"},
	{"store.open_ms", "ms"}, {"store.first_query_ms", "ms"}, {"store.file_mb", "MB"},
	{"go.gc_cycles", "count"}, {"go.gc_pause_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}

type workloadFunc func(cfg config) (*outcome, error)

var workloads = []struct {
	name string
	run  workloadFunc
}{
	{"retailer-read", func(cfg config) (*outcome, error) { return runRetailer(cfg, defaultRetailer) }},
	{"adhoc-shapes", func(cfg config) (*outcome, error) { return runAdhoc(cfg, defaultAdhoc) }},
	{"serve-mixed", func(cfg config) (*outcome, error) { return runServe(cfg, defaultServe) }},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the arguments, runs the selected workloads and prints their
// metrics; it returns the process exit code.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "retailer-read, adhoc-shapes, serve-mixed or all")
	seed := fs.Int64("seed", 1, "seed of the data and of the request schedule")
	seconds := fs.Float64("seconds", 10, "length of each timed phase in seconds")
	trace := fs.Int("trace", 0, "1: add a traced phase and print the per-layer metrics")
	outDir := fs.String("out-dir", ".bench_build", "directory for span files and the snapshot file")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir, setups: 31, log: stdout}

	var selected []string
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w.name)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}

	correct := true
	var attempted, failed int64
	out := map[string]interface{}{}
	for _, wname := range selected {
		o, err := runOne(wname, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", wname, err)
			return 1
		}
		for _, p := range o.problems {
			fmt.Fprintf(stderr, "perfbench: %s: %s\n", wname, p)
		}
		attempted += o.attempted
		failed += o.failed
		if o.failed > 0 {
			correct = false
		}
		prefix := ""
		if len(selected) > 1 {
			prefix = wname + "/"
		}
		for k, v := range resultMetrics(o, cfg.trace) {
			out[prefix+k] = v
		}
	}
	line, err := json.Marshal(map[string]interface{}{
		"correct": correct, "attempted": attempted, "failed": failed, "metrics": out,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

// runOne runs one workload and prints its metric table.
func runOne(name string, cfg config) (*outcome, error) {
	var fn workloadFunc
	for _, w := range workloads {
		if w.name == name {
			fn = w.run
		}
	}
	fmt.Fprintf(cfg.log, "perfbench: workload=%s seed=%d seconds=%g trace=%v\n", name, cfg.seed, cfg.seconds, cfg.trace)
	o, err := fn(cfg)
	if err != nil {
		return nil, err
	}
	o.e2e = append(o.e2e, o.failedFrac())
	fmt.Fprintf(cfg.log, "  end to end (attempted=%d failed=%d)\n", o.attempted, o.failed)
	printMetrics(cfg.log, o.e2e)
	if cfg.trace {
		fmt.Fprintln(cfg.log, "  per layer")
		printMetrics(cfg.log, o.layer)
	}
	return o, nil
}

func printMetrics(w io.Writer, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(w, "    %-30s %14.4f %-10s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
}

// resultMetrics selects the metrics of the result line: the gated
// end-to-end set, or every per-layer metric (0 where the workload does not
// reach the layer).
func resultMetrics(o *outcome, trace bool) map[string]interface{} {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]interface{}{}
	if !trace {
		for _, m := range o.e2e {
			for _, n := range endToEnd {
				if m.Name == n {
					out[n] = val{m.Value, m.Unit}
				}
			}
		}
		return out
	}
	have := map[string]metric{}
	for _, m := range o.layer {
		have[m.Name] = m
	}
	for _, p := range perLayer {
		out[p.name] = val{have[p.name].Value, p.unit}
	}
	return out
}

// spanPath returns the span file path of one workload run.
func spanPath(cfg config, workload string) string {
	return filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.json", workload, cfg.seed))
}

// reportTrace writes the span file and prints the share of read time each
// layer's self time covers, over all reads and over the reads at or above
// the 99th percentile.
func reportTrace(cfg config, workload string, tr *tracer) error {
	path := spanPath(cfg, workload)
	if err := tr.writeSpans(path, workload, cfg.seed); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	self := selfTimes(tr.spans)
	all, n := layerShares(tr.spans, self, "bench.read", false)
	tail, nt := layerShares(tr.spans, self, "bench.read", true)
	fmt.Fprintf(cfg.log, "  spans: %d recorded, %d dropped, written to %s\n", len(tr.spans), tr.dropped, path)
	fmt.Fprintf(cfg.log, "  layer self-time share of read time, all reads (n=%d): %s\n", n, formatShares(all))
	fmt.Fprintf(cfg.log, "  layer self-time share of read time, reads >= p99 (n=%d): %s\n", nt, formatShares(tail))
	return nil
}
