package fdb

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestWriteSetSemantics: duplicate inserts and absent deletes are no-ops;
// the version bumps once per effective commit.
func TestWriteSetSemantics(t *testing.T) {
	db := New()
	db.MustCreate("R", "a", "b")
	v0 := db.Version()
	db.MustInsert("R", 1, 10)
	db.MustInsert("R", 1, 10) // duplicate: still one tuple
	r, _ := db.Relation("R")
	if len(r.Tuples) != 1 {
		t.Fatalf("duplicate insert duplicated: %d tuples", len(r.Tuples))
	}
	if err := db.Delete("R", 9, 9); err != nil { // absent: no-op
		t.Fatal(err)
	}
	if err := db.Delete("R", 1, 10); err != nil {
		t.Fatal(err)
	}
	r, _ = db.Relation("R")
	if len(r.Tuples) != 0 {
		t.Fatalf("delete missed: %d tuples", len(r.Tuples))
	}
	if db.Version() <= v0 {
		t.Fatalf("version did not advance: %d <= %d", db.Version(), v0)
	}
	// Arity and unknown-relation errors.
	if err := db.Insert("R", 1); err == nil || !strings.Contains(err.Error(), "arity") {
		t.Fatalf("arity: err = %v", err)
	}
	if err := db.Insert("Ghost", 1, 2); err == nil {
		t.Fatal("insert into unknown relation accepted")
	}
	if err := db.Delete("Ghost", 1, 2); err == nil {
		t.Fatal("delete from unknown relation accepted")
	}
}

// TestUpsertKeyPrefix: upsert removes every live tuple agreeing on the key
// prefix, then inserts; upserting an unchanged tuple keeps it.
func TestUpsertKeyPrefix(t *testing.T) {
	db := New()
	db.MustCreate("KV", "k", "v")
	db.MustInsert("KV", 1, 10)
	db.MustInsert("KV", 1, 11) // sets are fine: two tuples share the key
	db.MustInsert("KV", 2, 20)
	if err := db.Upsert("KV", 1, 1, 99); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(From("KV"))
	if err != nil {
		t.Fatal(err)
	}
	got := res.Rows(0)
	want := [][]string{{"1", "99"}, {"2", "20"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after upsert: %v, want %v", got, want)
	}
	// Upserting the exact live tuple keeps it (dels apply before adds).
	if err := db.Upsert("KV", 1, 2, 20); err != nil {
		t.Fatal(err)
	}
	res, _ = db.Query(From("KV"))
	if !reflect.DeepEqual(res.Rows(0), want) {
		t.Fatalf("idempotent upsert changed data: %v", res.Rows(0))
	}
	if err := db.Upsert("KV", 0, 1, 1); err == nil {
		t.Fatal("zero key columns accepted")
	}
	if err := db.Upsert("KV", 3, 1, 1); err == nil {
		t.Fatal("key wider than schema accepted")
	}
}

// TestSnapshotIsolation: a snapshot pinned before a write keeps returning
// the pinned rows bit-for-bit, across writes AND compaction, while live
// queries see every commit; Close makes further reads fail loudly.
func TestSnapshotIsolation(t *testing.T) {
	db := New()
	db.MustCreate("R", "a", "b")
	for i := 0; i < 40; i++ {
		db.MustInsert("R", i, i%5)
	}
	q := []Clause{From("R"), Cmp("R.b", EQ, 3)}
	snap := db.Snapshot()
	pinnedStmt, err := snap.Prepare(q...)
	if err != nil {
		t.Fatal(err)
	}
	res0, err := snap.Query(q...)
	if err != nil {
		t.Fatal(err)
	}
	want := res0.Rows(0)
	if db.OpenSnapshots() != 1 {
		t.Fatalf("OpenSnapshots = %d", db.OpenSnapshots())
	}
	// Mutate heavily, then compact the delta chain away.
	for i := 40; i < 200; i++ {
		db.MustInsert("R", i, i%5)
	}
	for i := 0; i < 20; i++ {
		if err := db.Delete("R", i, i%5); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Compact("R"); err != nil {
		t.Fatal(err)
	}
	for _, rerun := range []*Result{
		mustQuery(t, func() (*Result, error) { return snap.Query(q...) }),
		mustQuery(t, func() (*Result, error) { return pinnedStmt.Exec() }),
	} {
		if got := rerun.Rows(0); !reflect.DeepEqual(got, want) {
			t.Fatalf("snapshot drifted:\n got %v\nwant %v", got, want)
		}
	}
	// The live view moved on.
	live, err := db.Query(q...)
	if err != nil {
		t.Fatal(err)
	}
	if int(live.Count()) == len(want) {
		t.Fatal("live query still serving the snapshot view")
	}
	snap.Close()
	snap.Close() // idempotent
	if db.OpenSnapshots() != 0 {
		t.Fatalf("OpenSnapshots after close = %d", db.OpenSnapshots())
	}
	if _, err := snap.Query(q...); err == nil {
		t.Fatal("query on closed snapshot succeeded")
	}
	if _, err := pinnedStmt.Exec(); err == nil || !strings.Contains(err.Error(), "snapshot closed") {
		t.Fatalf("pinned stmt after close: err = %v", err)
	}
}

func mustQuery(t *testing.T, f func() (*Result, error)) *Result {
	t.Helper()
	res, err := f()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestResultSurvivesCompaction: a Result built from a version that is later
// compacted away keeps iterating the old rows — the version chain pins
// tuple storage and the result owns its representation.
func TestResultSurvivesCompaction(t *testing.T) {
	db := New()
	db.MustCreate("R", "a", "b")
	db.MustCreate("S", "b", "c")
	for i := 0; i < 60; i++ {
		db.MustInsert("R", i, i%6)
		db.MustInsert("S", i%6, i)
	}
	res, err := db.Query(From("R", "S"), Eq("R.b", "S.b"))
	if err != nil {
		t.Fatal(err)
	}
	it := res.Iter() // live iterator across the compaction
	var first []string
	want := res.Count()
	// Overwrite everything and compact while the iterator is live.
	for i := 0; i < 60; i++ {
		if err := db.Delete("R", i, i%6); err != nil {
			t.Fatal(err)
		}
	}
	db.MustInsert("R", 999, 0)
	if err := db.Compact("R"); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact("S"); err != nil {
		t.Fatal(err)
	}
	n := int64(0)
	for {
		tp, ok := it.Next()
		if !ok {
			break
		}
		if first == nil {
			first = []string{fmt.Sprint(tp)}
		}
		n++
	}
	if n != want {
		t.Fatalf("iterator lost rows under compaction: %d != %d", n, want)
	}
	if err := res.Enc().Validate(); err != nil || res.Count() != want {
		t.Fatalf("representation unusable after compaction: %v", err)
	}
}

// TestStmtRefreshAfterCompaction: a prepared statement whose held version
// predates a compaction re-snapshots instead of merging, and serves data
// identical to a fresh plan.
func TestStmtRefreshAfterCompaction(t *testing.T) {
	db := New()
	db.MustCreate("R", "a", "b")
	db.MustCreate("S", "b", "c")
	for i := 0; i < 30; i++ {
		db.MustInsert("R", i, i%4)
		db.MustInsert("S", i%4, i)
	}
	stmt, err := db.Prepare(From("R", "S"), Eq("R.b", "S.b"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Exec(); err != nil {
		t.Fatal(err)
	}
	for i := 30; i < 90; i++ {
		db.MustInsert("R", i, i%4)
	}
	if err := db.Compact("R"); err != nil {
		t.Fatal(err)
	}
	got, err := stmt.Exec()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := db.Query(From("R", "S"), Eq("R.b", "S.b"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Count() != fresh.Count() {
		t.Fatalf("post-compaction refresh diverged: %d != %d", got.Count(), fresh.Count())
	}
}

// TestStmtIncrementalRefreshParity: interleaved inserts, deletes and
// upserts keep a long-lived prepared statement in lockstep with freshly
// compiled queries — the incremental merge path never drifts.
func TestStmtIncrementalRefreshParity(t *testing.T) {
	db := New()
	db.MustCreate("R", "a", "b")
	db.MustCreate("S", "b", "c")
	for i := 0; i < 50; i++ {
		db.MustInsert("R", i, i%7)
		db.MustInsert("S", i%7, i%11)
	}
	stmt, err := db.Prepare(From("R", "S"), Eq("R.b", "S.b"), Cmp("S.c", LT, 9))
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 25; step++ {
		switch step % 4 {
		case 0:
			db.MustInsert("R", 100+step, step%7)
		case 1:
			if err := db.Delete("R", step, step%7); err != nil {
				t.Fatal(err)
			}
		case 2:
			if err := db.Upsert("S", 1, step%7, step%13); err != nil {
				t.Fatal(err)
			}
		case 3:
			db.MustInsert("S", step%7, (step*3)%11)
		}
		got, err := stmt.Exec()
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		fresh, err := db.Prepare(From("R", "S"), Eq("R.b", "S.b"), Cmp("S.c", LT, 9))
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		want, err := fresh.Exec()
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if got.Count() != want.Count() {
			t.Fatalf("step %d: refreshed stmt diverged: %d != %d", step, got.Count(), want.Count())
		}
		if !reflect.DeepEqual(got.Rows(0), want.Rows(0)) {
			t.Fatalf("step %d: refreshed rows diverged", step)
		}
	}
}

// TestCacheHitRateReadMostly: under a read-mostly mixed workload the plan
// cache keeps serving (writes never evict), with a hit rate above 90%.
func TestCacheHitRateReadMostly(t *testing.T) {
	db := New()
	db.MustCreate("R", "a", "b")
	db.MustCreate("S", "b", "c")
	for i := 0; i < 100; i++ {
		db.MustInsert("R", i, i%9)
		db.MustInsert("S", i%9, i)
	}
	queries := [][]Clause{
		{From("R", "S"), Eq("R.b", "S.b")},
		{From("R"), Cmp("R.b", EQ, 3)},
		{From("S"), Cmp("S.c", LT, 50)},
	}
	for i := 0; i < 200; i++ {
		q := queries[i%len(queries)]
		res, err := db.Query(q...)
		if err != nil {
			t.Fatal(err)
		}
		res.Count()
		if i%10 == 9 { // ~10% writes
			db.MustInsert("R", 1000+i, i%9)
		}
	}
	s := db.CacheStats()
	total := s.Hits + s.Misses
	if rate := float64(s.Hits) / float64(total); rate <= 0.9 {
		t.Fatalf("hit rate %.2f <= 0.90 under read-mostly workload: %+v", rate, s)
	}
}

// TestConcurrentWritersReadersSnapshots: hammer the database from writer,
// reader and snapshot goroutines simultaneously (run under -race).
func TestConcurrentWritersReadersSnapshots(t *testing.T) {
	db := New()
	db.MustCreate("R", "a", "b")
	for i := 0; i < 50; i++ {
		db.MustInsert("R", i, i%5)
	}
	stmt, err := db.Prepare(From("R"), Cmp("R.b", EQ, 2))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	wg.Add(1)
	go func() { // writer: inserts, deletes, upserts, compactions
		defer wg.Done()
		for i := 0; i < 120; i++ {
			switch i % 5 {
			case 0, 1, 2:
				if err := db.Insert("R", 100+i, i%5); err != nil {
					errs <- err
					return
				}
			case 3:
				if err := db.Delete("R", 100+i-3, (i-3)%5); err != nil {
					errs <- err
					return
				}
			case 4:
				if err := db.Compact("R"); err != nil {
					errs <- err
					return
				}
			}
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() { // readers: prepared statement re-exec
			defer wg.Done()
			for i := 0; i < 60; i++ {
				res, err := stmt.Exec()
				if err != nil {
					errs <- err
					return
				}
				res.Count()
			}
		}()
	}
	wg.Add(1)
	go func() { // snapshot reader: pin, query twice, verify stability, close
		defer wg.Done()
		for i := 0; i < 25; i++ {
			snap := db.Snapshot()
			a, err := snap.Query(From("R"))
			if err != nil {
				errs <- err
				snap.Close()
				return
			}
			b, err := snap.Query(From("R"))
			if err != nil {
				errs <- err
				snap.Close()
				return
			}
			if a.Count() != b.Count() {
				errs <- fmt.Errorf("snapshot unstable: %d != %d", a.Count(), b.Count())
				snap.Close()
				return
			}
			snap.Close()
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if db.OpenSnapshots() != 0 {
		t.Fatalf("leaked snapshots: %d", db.OpenSnapshots())
	}
}

// TestBatchWrites: batch variants commit atomically under one version bump.
func TestBatchWrites(t *testing.T) {
	db := New()
	db.MustCreate("R", "a", "b")
	v0 := db.Version()
	rows := make([][]interface{}, 50)
	for i := range rows {
		rows[i] = []interface{}{i, i % 3}
	}
	if err := db.InsertBatch("R", rows); err != nil {
		t.Fatal(err)
	}
	if db.Version() != v0+1 {
		t.Fatalf("batch insert bumped version %d times", db.Version()-v0)
	}
	r, _ := db.Relation("R")
	if len(r.Tuples) != 50 {
		t.Fatalf("batch insert stored %d tuples", len(r.Tuples))
	}
	if err := db.DeleteBatch("R", rows[:20]); err != nil {
		t.Fatal(err)
	}
	r, _ = db.Relation("R")
	if len(r.Tuples) != 30 {
		t.Fatalf("batch delete left %d tuples", len(r.Tuples))
	}
	if err := db.UpsertBatch("R", 1, [][]interface{}{{20, 99}, {21, 99}}); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(From("R"), Cmp("R.b", EQ, 99))
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != 2 {
		t.Fatalf("batch upsert: %d rows with b=99", res.Count())
	}
}
