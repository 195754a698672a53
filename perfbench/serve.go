package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	fdb "repro"
	"repro/internal/wire"
)

// serveParams sizes the serve-mixed workload.
type serveParams struct {
	scale      int
	rate       float64 // offered requests per second over all connections
	writeEvery int     // one request in writeEvery, drawn at random, is a write batch
	warmup     float64 // seconds the mix runs untimed before the timed phase
}

// defaultServe: retailer data at scale 2 served from a snapshot file over
// serveConns loopback connections, at 60 requests/s. With cmd/fdload on 2
// connections (2-core host, engine at commit 0397aec) this mix sustained
// 550 requests/s at scale 2 and 190-230 at scale 4. Both connections share
// the host's two cores with the rebuilds after writes, so the busier the
// server, the more a slower host lengthened the queue: at scale 4 and 60
// requests/s, a core taken by another process raised the read p99 by
// 42-66%, at scale 2 by 8-25%, and runs during which the host slowed
// spread the scale-4 p99 past the benchmark's bound. Read latency rose
// over the first 10 s of writes before it levelled off, so the mix runs
// that long before it is timed.
var defaultServe = serveParams{scale: 2, rate: 60, writeEvery: 10, warmup: 10}

const (
	// serveConns is the number of client connections, one goroutine each.
	serveConns = 2
	// sloLimit is the read latency limit of read_slo_miss_frac. It sits
	// between the steady reads and the reads that rebuild after a write.
	sloLimit = 10 * time.Millisecond
	// writeBase is the first oid of the private range the writes use; seed
	// oids stay far below it, so deleting the range restores the seed
	// state exactly.
	writeBase = 1_000_000
)

// serveState is a server opened from a snapshot file, with clients that
// have the read pool prepared.
type serveState struct {
	db      *fdb.DB
	srv     *wire.Server
	clients []*wire.Client
	stmts   [][]*wire.RemoteStmt // [conn][pool entry]
	path    string

	plans, escalations, fallbacks uint64
	cost                          float64
	openDur, firstQuery           time.Duration
	fileBytes                     int64
}

func (s *serveState) close() {
	s.stopServer()
	os.Remove(s.path)
}

// stopServer closes the clients and shuts the server down.
func (s *serveState) stopServer() {
	for _, cl := range s.clients {
		cl.Close()
	}
	s.clients, s.stmts = nil, nil
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.srv.Shutdown(ctx) // a forced close after the timeout is fine here
		s.srv = nil
	}
}

// startServer starts a server over s.db on a loopback port and prepares
// the pool on each of serveConns client connections.
func (s *serveState) startServer(pool []poolEntry, tr *tracer, root int32) error {
	s.srv = wire.NewServer(s.db, wire.Options{})
	addr, err := s.srv.Listen("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	for c := 0; c < serveConns; c++ {
		cl, err := wire.Dial(addr.String())
		if err != nil {
			return fmt.Errorf("dial: %w", err)
		}
		s.clients = append(s.clients, cl)
		var stmts []*wire.RemoteStmt
		for i := range pool {
			sp := tr.begin("wire.prepare", root, 0)
			rs, err := cl.Prepare(pool[i].spec)
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("remote prepare %s: %w", pool[i].name, err)
			}
			stmts = append(stmts, rs)
		}
		s.stmts = append(s.stmts, stmts)
	}
	return nil
}

// setupServe seeds a database, prepares and runs the pool on it so its
// encodings persist, saves it with DB.SaveSnapshot, opens the file with
// OpenSnapshotFile, starts a server on a loopback port and prepares the
// pool on every client connection.
func setupServe(cfg config, p serveParams, pool []poolEntry, tr *tracer) (s *serveState, err error) {
	root := tr.begin("bench.setup", -1, 0)
	defer tr.end(root)
	s = &serveState{path: filepath.Join(cfg.outDir, fmt.Sprintf("serve-mixed-seed%d.snap", cfg.seed))}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	src, err := newRetailerDB(cfg.seed, p.scale)
	if err != nil {
		return s, err
	}
	for i := range pool {
		e := &pool[i]
		cl, err := e.spec.Clauses()
		if err != nil {
			return s, err
		}
		sp := tr.begin("opt.prepare", root, 0)
		st, err := src.PrepareCached(cl...)
		tr.end(sp)
		if err != nil {
			return s, fmt.Errorf("prepare %s: %w", e.name, err)
		}
		s.cost += st.Cost()
		if e.params {
			continue
		}
		if e.agg {
			_, err = st.ExecAgg()
		} else {
			_, err = st.Exec()
		}
		if err != nil {
			return s, fmt.Errorf("exec %s: %w", e.name, err)
		}
	}
	cs := src.CacheStats()
	s.plans, s.escalations, s.fallbacks = cs.Misses, cs.Escalations, cs.BudgetFallbacks
	sp := tr.begin("store.save", root, 0)
	err = src.SaveSnapshot(s.path)
	tr.end(sp)
	if err != nil {
		return s, fmt.Errorf("save snapshot: %w", err)
	}
	if fi, err := os.Stat(s.path); err == nil {
		s.fileBytes = fi.Size()
	}

	t0 := time.Now()
	sp = tr.beginAt("store.open", root, 0, t0)
	s.db, err = fdb.OpenSnapshotFile(s.path)
	tr.end(sp)
	s.openDur = time.Since(t0)
	if err != nil {
		return s, fmt.Errorf("open snapshot: %w", err)
	}
	// The two connections already keep both cores busy; with morsel
	// parallelism on top, each request also waited on the other's workers,
	// and the read figures followed whatever else the host ran.
	s.db.SetParallelism(1)
	if err := s.startServer(pool, tr, root); err != nil {
		return s, err
	}
	// The first read after the cold open: a parameter-free statement whose
	// encoding the snapshot carries.
	for i := range pool {
		if !pool[i].params {
			t0 := time.Now()
			sp := tr.beginAt("store.first_query", root, 0, t0)
			_, err := s.stmts[0][i].Exec(0, 0)
			tr.end(sp)
			s.firstQuery = time.Since(t0)
			if err != nil {
				return s, fmt.Errorf("first query: %w", err)
			}
			break
		}
	}
	return s, nil
}

// serveCheck compares pool reads over the wire byte for byte with the
// encoding of the same reads on an identically seeded reference database:
// every binding when all is set, otherwise one seeded binding per statement.
func serveCheck(s *serveState, pool []poolEntry, seed int64, scale int, all bool, rng *rand.Rand, o *outcome) error {
	ref, err := newRetailerDB(seed, scale)
	if err != nil {
		return err
	}
	ref.SetParallelism(1)
	for ei := range pool {
		e := &pool[ei]
		bis := []int{rng.Intn(len(e.bindings))}
		if all {
			bis = bis[:0]
			for bi := range e.bindings {
				bis = append(bis, bi)
			}
		}
		for _, bi := range bis {
			want, _, err := referenceRows(ref, e, e.bindings[bi])
			if err != nil {
				return fmt.Errorf("reference %s: %w", e.name, err)
			}
			o.attempted++
			pend, err := s.stmts[0][ei].Start(0, 0, e.bindings[bi]...)
			var body []byte
			if err == nil {
				body, err = pend.Wait()
			}
			if err != nil {
				o.fail("check %s%v: %v", e.name, e.bindings[bi], err)
			} else if !bytes.Equal(body, wire.EncodeRows(want)) {
				o.fail("check %s%v: response differs from the seed-state reference", e.name, e.bindings[bi])
			}
		}
	}
	return nil
}

// serveOp is one scheduled request.
type serveOp struct {
	due    time.Duration // from the phase start
	write  bool
	del    bool
	after  int // a delete's insert, whose rows it removes
	rows   [][]wire.Value
	ei, bi int
}

// serveSchedule draws one phase's requests: arrivals evenly spaced at the
// offered rate, as cmd/fdload -qps paces them, one in writeEvery a write.
// A write is an Insert batch of 1-3 new rows on the private Orders oid
// range or, once more than two batches are live, with probability 1/3 the
// Delete of the newest live batch. Reads take the seven slots of the
// retailer-read pool in seeded shuffled blocks, with a uniform binding; the
// wire protocol has no set-query verb, so the slot of the UNION goes to the
// point selection. It also returns the rows still live at the end.
//
// The arrivals are not Poisson: the read p99 then counted how often the
// schedule bunched rebuilding reads together, and over five seeds at
// scale 4 it spread by 0.20 of its median, against 0.04 with even spacing.
func serveSchedule(p serveParams, pool []poolEntry, seconds float64, rng *rand.Rand) ([]serveOp, [][]wire.Value) {
	var ops []serveOp
	var live []int // live insert batches, by op index
	var slots, order []int
	for ei := range pool {
		slots = append(slots, ei)
		if pool[ei].name == "item_point" {
			slots = append(slots, ei)
		}
	}
	next := int64(writeBase)
	end := time.Duration(seconds * float64(time.Second))
	for t := time.Duration(0); ; {
		t += time.Duration(float64(time.Second) / p.rate)
		if t >= end {
			break
		}
		op := serveOp{due: t, after: -1}
		switch {
		case rng.Intn(p.writeEvery) != 0:
			if len(order) == 0 {
				for _, i := range rng.Perm(len(slots)) {
					order = append(order, slots[i])
				}
			}
			op.ei, order = order[0], order[1:]
			op.bi = rng.Intn(len(pool[op.ei].bindings))
		case len(live) > 2 && rng.Intn(3) == 0:
			op.write, op.del = true, true
			op.after = live[len(live)-1]
			live = live[:len(live)-1]
			op.rows = ops[op.after].rows
		default:
			op.write = true
			for n := 1 + rng.Intn(3); n > 0; n-- {
				op.rows = append(op.rows, []wire.Value{wire.Int(next), wire.Int(int64(rng.Intn(50) + 1))})
				next++
			}
			live = append(live, len(ops))
		}
		ops = append(ops, op)
	}
	var rest [][]wire.Value
	for _, i := range live {
		rest = append(rest, ops[i].rows...)
	}
	return ops, rest
}

// serveWorker holds one connection's measurements.
type serveWorker struct {
	reads, writes      *windowed // by due time
	completed          *windowed // reads by completion time, for read_qps
	afterWrite, steady latencies
	late               latencies
	perEntry           map[int]latencies
	readsTried, misses int64
	respBytes          int64
	o                  outcome
}

// servePhase runs one open-loop phase. The requests form one queue in due
// order, served by one goroutine per connection: a free connection takes
// the next request, sends it when it is due and waits for the answer.
// Every request is timed from when it was due, so time spent queued while
// both connections were busy counts. A delete waits for the insert whose
// rows it removes. The phase ends by deleting what is left in the private
// range.
func servePhase(s *serveState, p serveParams, pool []poolEntry, seconds float64, rng *rand.Rand, tr *tracer, o *outcome) ([]serveWorker, time.Duration) {
	ops, live := serveSchedule(p, pool, seconds, rng)
	done := make([]chan struct{}, len(ops))
	for i := range done {
		done[i] = make(chan struct{})
	}
	ws := make([]serveWorker, serveConns)
	for i := range ws {
		ws[i].reads, ws[i].writes = newWindowed(seconds), newWindowed(seconds)
		ws[i].completed = newWindowed(seconds)
		ws[i].perEntry = map[int]latencies{}
	}
	var commits, nextOp atomic.Int64
	lastSeen := make([]atomic.Int64, len(pool))
	phase := time.Duration(seconds * float64(time.Second))
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w, cl := &ws[c], s.clients[c]
			for {
				k := int(nextOp.Add(1) - 1)
				if k >= len(ops) {
					return
				}
				op, req := &ops[k], uint32(k)
				taken := time.Now()
				due := start.Add(op.due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				// A request due while both connections were busy waited in
				// the queue until one was free; only the delay after that is
				// the generator's own lateness.
				ready := due
				if taken.After(due) {
					ready = taken
				}
				w.late.add(time.Since(ready))
				kind := "bench.read"
				if op.write {
					kind = "bench.write"
				}
				root := tr.beginAt(kind, -1, req, due)
				if ready != due {
					tr.record("wire.client_queue", root, req, due, ready)
				}
				if op.write {
					if op.del {
						<-done[op.after]
					}
					sp := tr.begin("wire.write", root, req)
					var err error
					if op.del {
						_, err = cl.Delete("Orders", op.rows)
					} else {
						_, err = cl.Insert("Orders", op.rows)
					}
					tr.end(sp)
					tr.end(root)
					d := time.Since(due)
					close(done[k])
					w.o.attempted++
					if err != nil {
						w.o.fail("write: %v", err)
						continue
					}
					commits.Add(1)
					w.writes.add(op.due, d)
					continue
				}
				e := &pool[op.ei]
				seen := commits.Load()
				afterWrite := lastSeen[op.ei].Swap(seen) != seen
				sp := tr.begin("wire.wait", root, req)
				pend, err := s.stmts[c][op.ei].Start(0, 0, e.bindings[op.bi]...)
				var body []byte
				if err == nil {
					body, err = pend.Wait()
				}
				tr.end(sp)
				if err == nil {
					dp := tr.begin("wire.decode", root, req)
					_, err = wire.DecodeRows(body)
					tr.end(dp)
				}
				tr.end(root)
				d := time.Since(due)
				w.o.attempted++
				w.readsTried++
				if err != nil {
					w.misses++
					w.o.fail("read %s: %v", e.name, err)
					continue
				}
				if d > sloLimit {
					w.misses++
				}
				w.reads.add(op.due, d)
				// A read that completes after the phase's end falls in no
				// window, so a backlog lowers read_qps.
				if end := op.due + d; end < phase {
					w.completed.add(end, d)
				}
				w.perEntry[op.ei] = append(w.perEntry[op.ei], int64(d))
				w.respBytes += int64(len(body))
				if afterWrite {
					w.afterWrite.add(d)
				} else {
					w.steady.add(d)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if len(live) > 0 {
		o.attempted++
		if _, err := s.clients[0].Delete("Orders", live); err != nil {
			o.fail("cleanup: %v", err)
		}
	}
	for i := range ws {
		o.attempted += ws[i].o.attempted
		o.failed += ws[i].o.failed
		o.problems = append(o.problems, ws[i].o.problems...)
	}
	return ws, elapsed
}

// mergedWin merges one windowed series across workers.
func mergedWin(ws []serveWorker, seconds float64, f func(*serveWorker) *windowed) *windowed {
	out := newWindowed(seconds)
	for i := range ws {
		out.merge(f(&ws[i]))
	}
	return out
}

// merged concatenates one latency series across workers.
func merged(ws []serveWorker, f func(*serveWorker) latencies) latencies {
	var out latencies
	for i := range ws {
		out = append(out, f(&ws[i])...)
	}
	return out
}

func runServe(cfg config, p serveParams) (o *outcome, err error) {
	o = &outcome{}
	pool, err := retailerPool(false)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer(64) // the set-up spans; reserved before the traced phase
	}
	setups := &setupRuns[*serveState]{n: cfg.setups, setup: func(keep bool) (*serveState, error) {
		t := tr
		if !keep {
			t = nil
		}
		return setupServe(cfg, p, pool, t)
	}, release: (*serveState).close}
	s, err := setups.before()
	if err != nil {
		return nil, err
	}
	// Deferred calls run last first: the run's server is closed before the
	// second half of the set-ups, which reuse its snapshot path.
	defer func() {
		if err == nil {
			err = setups.after(o)
		}
	}()
	defer s.close()
	rng := rand.New(rand.NewSource(cfg.seed))
	if err := serveCheck(s, pool, cfg.seed, p.scale, false, rng, o); err != nil {
		return nil, err
	}

	servePhase(s, p, pool, p.warmup, rng, nil, o)
	ws, _ := servePhase(s, p, pool, cfg.seconds, rng, nil, o)
	heap := heapLiveMB()
	runtime.KeepAlive(s)
	for ei := range pool {
		l := merged(ws, func(w *serveWorker) latencies { return w.perEntry[ei] })
		fmt.Fprintf(cfg.log, "  %-14s p50=%8.3f ms p99=%8.3f ms n=%d\n", pool[ei].name, l.ms(50), l.ms(99), len(l))
	}
	reads := mergedWin(ws, cfg.seconds, func(w *serveWorker) *windowed { return w.reads })
	var tried, misses int64
	for i := range ws {
		tried += ws[i].readsTried
		misses += ws[i].misses
	}
	o.e2e = append(o.e2e, reads.timing("read")...)
	o.e2e = append(o.e2e, mergedWin(ws, cfg.seconds, func(w *serveWorker) *windowed { return w.completed }).rate("read_qps"))
	o.e2e = append(o.e2e, mergedWin(ws, cfg.seconds, func(w *serveWorker) *windowed { return w.writes }).timing("write")...)
	o.e2e = append(o.e2e,
		ratio("read_slo_miss_frac", float64(misses), float64(tried)),
		metric{Name: "heap_live_mb", Value: heap, Unit: "MB", N: 1})

	if cfg.trace {
		// A fresh server serves the traced phase, so that its STATS rings
		// and counters hold this phase only; its connections prepare the
		// pool again, as plan cache hits.
		cs0 := s.db.CacheStats()
		s.stopServer()
		if err := s.startServer(pool, nil, -1); err != nil {
			return nil, err
		}
		tr.reserve(spanCapacity)
		v0 := s.db.Version()
		gc0 := readGC()
		tws, telapsed := servePhase(s, p, pool, cfg.seconds, rng, tr, o)
		gcm := gcMetrics(gc0)
		v1 := s.db.Version()
		st, err := s.clients[0].Stats()
		if err != nil {
			return nil, fmt.Errorf("stats: %w", err)
		}
		cs := s.db.CacheStats()
		hits, misses := cs.Hits-cs0.Hits, cs.Misses-cs0.Misses
		treads := mergedWin(tws, cfg.seconds, func(w *serveWorker) *windowed { return w.reads })
		aw := merged(tws, func(w *serveWorker) latencies { return w.afterWrite })
		var respBytes int64
		for i := range tws {
			respBytes += tws[i].respBytes
		}
		l := &o.layer
		*l = append(*l, spanTimings(tr, "opt.prepare", "opt.prepare_ms", 50, 99)...)
		*l = append(*l,
			ratio("opt.escalation_frac", float64(s.escalations), float64(s.plans)),
			metric{Name: "opt.budget_fallbacks", Value: float64(s.fallbacks), Unit: "count", N: int(s.plans)},
			ratio("opt.cost_mean", s.cost, float64(len(pool))),
			ratio("fdb.cache_hit_rate", float64(hits), float64(hits+misses)),
			quantile("fdb.read_after_write_ms.p50", aw, 50),
			quantile("fdb.read_after_write_ms.p99", aw, 99),
			quantile("fdb.read_steady_ms.p50", merged(tws, func(w *serveWorker) latencies { return w.steady }), 50),
			ratio("delta.batches_per_s", float64(v1-v0), telapsed.Seconds()),
			metric{Name: "wire.server_read_p50_ms", Value: st.ReadP50us / 1000, Unit: "ms", N: 1},
			metric{Name: "wire.server_read_p99_ms", Value: st.ReadP99us / 1000, Unit: "ms", N: 1},
			metric{Name: "wire.server_write_p99_ms", Value: st.WriteP99us / 1000, Unit: "ms", N: 1})
		*l = append(*l, spanTimings(tr, "wire.wait", "wire.wait_ms", 50)...)
		*l = append(*l, spanTimings(tr, "wire.decode", "wire.decode_ms", 50)...)
		*l = append(*l,
			ratio("wire.resp_bytes_per_read", float64(respBytes), float64(treads.n())),
			metric{Name: "wire.shed", Value: float64(st.Shed), Unit: "count", N: 1},
			metric{Name: "wire.timeouts", Value: float64(st.Timeouts), Unit: "count", N: 1},
			quantile("wire.gen_late_ms.p99", merged(tws, func(w *serveWorker) latencies { return w.late }), 99),
			metric{Name: "store.open_ms", Value: float64(s.openDur) / 1e6, Unit: "ms", N: 1},
			metric{Name: "store.first_query_ms", Value: float64(s.firstQuery) / 1e6, Unit: "ms", N: 1},
			metric{Name: "store.file_mb", Value: float64(s.fileBytes) / 1e6, Unit: "MB", N: 1})
		*l = append(*l, gcm...)
		*l = append(*l, overhead(reads, treads))
		tail := treads.all().ms(99)
		var tailN, tailAW int
		for i := range tws {
			for _, d := range tws[i].afterWrite {
				if float64(d)/1e6 >= tail {
					tailAW++
				}
			}
			for _, d := range tws[i].reads.all() {
				if float64(d)/1e6 >= tail {
					tailN++
				}
			}
		}
		fmt.Fprintf(cfg.log, "  reads after a write: %d of %d; of the %d reads >= p99 (%.2f ms), %d came after a write\n",
			len(aw), treads.n(), tailN, tail, tailAW)
		if err := reportTrace(cfg, "serve-mixed", tr); err != nil {
			return nil, err
		}
	}

	// The phases deleted their private ranges: every pool read must match
	// the seed state again.
	if err := serveCheck(s, pool, cfg.seed, p.scale, true, rng, o); err != nil {
		return nil, err
	}
	return o, nil
}
