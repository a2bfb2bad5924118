package core

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/gwu-systems/gstore/internal/algo"
	"github.com/gwu-systems/gstore/internal/tile"
)

// gated wraps an algorithm so its first AfterIteration blocks until
// released, holding the sweep at a known point while a test arranges
// co-scheduled runs. entered is signaled when the block is reached.
type gated struct {
	algo.Algorithm
	entered chan struct{}
	release chan struct{}
}

func newGated(a algo.Algorithm) *gated {
	return &gated{Algorithm: a, entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gated) AfterIteration(i int) bool {
	done := g.Algorithm.AfterIteration(i)
	if i == 0 {
		g.entered <- struct{}{}
		<-g.release
	}
	return done
}

func newSched(t *testing.T, g *tile.Graph, opts Options) (*Engine, *Scheduler) {
	t.Helper()
	e, err := NewEngine(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	s := NewScheduler(e)
	t.Cleanup(s.Close)
	return e, s
}

// waitActive blocks until n runs are admitted (batch + pending).
func waitActive(t *testing.T, s *Scheduler, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		active := s.active
		s.mu.Unlock()
		if active >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d active runs (have %d)", n, active)
		}
		time.Sleep(time.Millisecond)
	}
}

// A scheduler driving a single run must reproduce Engine.Run exactly:
// same results, same iteration count, same I/O accounting.
func TestSchedulerSoloMatchesEngineRun(t *testing.T) {
	el := kron(t, 10, 8, 5)
	g := convert(t, el, 6, 4)

	ref := algo.NewBFS(0)
	refSt := runAlg(t, g, smallOpts(), ref)

	_, s := newSched(t, g, smallOpts())
	a := algo.NewBFS(0)
	st, err := s.Run(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	wantD, gotD := ref.Depths(), a.Depths()
	for v := range wantD {
		if wantD[v] != gotD[v] {
			t.Fatalf("depth[%d] = %d via scheduler, %d solo", v, gotD[v], wantD[v])
		}
	}
	if st.Iterations != refSt.Iterations {
		t.Fatalf("Iterations = %d via scheduler, %d solo", st.Iterations, refSt.Iterations)
	}
	if st.BytesRead != refSt.BytesRead {
		t.Fatalf("BytesRead = %d via scheduler, %d solo", st.BytesRead, refSt.BytesRead)
	}
	if st.SharedRuns != 1 {
		t.Fatalf("SharedRuns = %d for a solo scheduler run, want 1", st.SharedRuns)
	}
	if st.QueueWait != 0 {
		t.Fatalf("QueueWait = %v for an immediately admitted run, want 0", st.QueueWait)
	}
	// Both paths seal through the same driver, so the per-worker and
	// injected-fault accounting matches too.
	sum := func(v []int64) (n int64) {
		for _, x := range v {
			n += x
		}
		return n
	}
	if len(st.WorkerBusy) != len(refSt.WorkerBusy) || sum(st.WorkerChunks) != sum(refSt.WorkerChunks) ||
		st.Faults != refSt.Faults {
		t.Fatalf("scheduled run: %d workers, %d chunks, faults %+v; solo: %d workers, %d chunks, faults %+v",
			len(st.WorkerBusy), sum(st.WorkerChunks), st.Faults,
			len(refSt.WorkerBusy), sum(refSt.WorkerChunks), refSt.Faults)
	}
}

// Eight mixed runs co-scheduled on one sweep must produce the same
// results as solo execution: BFS depths and WCC labels bit-identical,
// PageRank ranks within the chunked-reduction tolerance. This is the
// join-barrier correctness test; CI runs it under -race.
func TestSchedulerMixedConcurrentMatchesSolo(t *testing.T) {
	el := kron(t, 11, 8, 3)
	g := convert(t, el, 6, 4)

	// Solo references, each on a fresh engine.
	refBFS := make([]*algo.BFS, 3)
	for i := range refBFS {
		refBFS[i] = algo.NewBFS(uint32(i))
		runAlg(t, g, smallOpts(), refBFS[i])
	}
	refWCC := algo.NewWCC()
	runAlg(t, g, smallOpts(), refWCC)
	refPR10 := algo.NewPageRank(10)
	prSoloSt := runAlg(t, g, smallOpts(), refPR10)
	refPR20 := algo.NewPageRank(20)
	runAlg(t, g, smallOpts(), refPR20)

	opts := smallOpts()
	opts.MaxConcurrentRuns = 8
	_, s := newSched(t, g, opts)

	// The heavy run goes first and holds the sweep at iteration 0 until
	// all seven others are admitted, guaranteeing everyone shares.
	heavy := newGated(algo.NewPageRank(20))
	heavyErr := make(chan error, 1)
	var heavySt *Stats
	go func() {
		st, err := s.Run(context.Background(), heavy)
		heavySt = st
		heavyErr <- err
	}()
	<-heavy.entered

	bfs := make([]*algo.BFS, 3)
	for i := range bfs {
		bfs[i] = algo.NewBFS(uint32(i))
	}
	wcc := [2]*algo.WCC{algo.NewWCC(), algo.NewWCC()}
	pr := [2]*algo.PageRank{algo.NewPageRank(10), algo.NewPageRank(10)}

	var wg sync.WaitGroup
	stats := make([]*Stats, 7)
	errs := make([]error, 7)
	riders := []algo.Algorithm{bfs[0], bfs[1], bfs[2], wcc[0], wcc[1], pr[0], pr[1]}
	for i, a := range riders {
		wg.Add(1)
		go func(i int, a algo.Algorithm) {
			defer wg.Done()
			stats[i], errs[i] = s.Run(context.Background(), a)
		}(i, a)
	}
	waitActive(t, s, 8)
	close(heavy.release)
	wg.Wait()
	if err := <-heavyErr; err != nil {
		t.Fatalf("heavy run: %v", err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rider %d: %v", i, err)
		}
	}

	for i := range bfs {
		want, got := refBFS[i].Depths(), bfs[i].Depths()
		for v := range want {
			if want[v] != got[v] {
				t.Fatalf("bfs[%d] depth[%d] = %d shared, %d solo", i, v, got[v], want[v])
			}
		}
	}
	for i := range wcc {
		want, got := refWCC.Labels(), wcc[i].Labels()
		for v := range want {
			if want[v] != got[v] {
				t.Fatalf("wcc[%d] label[%d] = %d shared, %d solo", i, v, got[v], want[v])
			}
		}
	}
	// Chunked PageRank reduces worker slabs in nondeterministic float
	// order, so shared-vs-solo matches to tolerance, same as the chunked
	// equivalence tests.
	for i := range pr {
		want, got := refPR10.Ranks(), pr[i].Ranks()
		for v := range want {
			if math.Abs(want[v]-got[v]) > 1e-9 {
				t.Fatalf("pr[%d] rank[%d] = %g shared, %g solo", i, v, got[v], want[v])
			}
		}
	}
	for v, want := range refPR20.Ranks() {
		if got := heavy.Algorithm.(*algo.PageRank).Ranks()[v]; math.Abs(want-got) > 1e-9 {
			t.Fatalf("heavy rank[%d] = %g shared, %g solo", v, got, want)
		}
	}

	// Everyone shared a sweep, and the shared scan attributed each
	// PageRank rider fewer bytes than its solo run paid.
	if heavySt.SharedRuns < 2 {
		t.Fatalf("heavy SharedRuns = %d, want ≥ 2", heavySt.SharedRuns)
	}
	for i, st := range stats {
		if st.SharedRuns < 2 {
			t.Fatalf("rider %d SharedRuns = %d, want ≥ 2", i, st.SharedRuns)
		}
	}
	for i := 5; i < 7; i++ { // the PageRank(10) riders
		if stats[i].BytesRead >= prSoloSt.BytesRead {
			t.Fatalf("shared pagerank BytesRead = %d, want < solo %d",
				stats[i].BytesRead, prSoloSt.BytesRead)
		}
	}
}

// Admission control: with a full batch and a full queue further runs are
// rejected; a queued run whose client disconnects leaves the queue with
// its context error.
func TestSchedulerQueueOverflowAndCancel(t *testing.T) {
	el := kron(t, 10, 8, 7)
	g := convert(t, el, 6, 4)
	opts := smallOpts()
	opts.MaxConcurrentRuns = 1
	opts.MaxQueuedRuns = 1
	_, s := newSched(t, g, opts)

	blocker := newGated(algo.NewPageRank(5))
	blockErr := make(chan error, 1)
	go func() {
		_, err := s.Run(context.Background(), blocker)
		blockErr <- err
	}()
	<-blocker.entered

	qctx, qcancel := context.WithCancel(context.Background())
	queuedErr := make(chan error, 1)
	go func() {
		_, err := s.Run(qctx, algo.NewWCC())
		queuedErr <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.QueueDepth() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("queued run never appeared in the queue")
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := s.Run(context.Background(), algo.NewWCC()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow run err = %v, want ErrQueueFull", err)
	}

	qcancel()
	if err := <-queuedErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled queued run err = %v, want context.Canceled", err)
	}
	if d := s.QueueDepth(); d != 0 {
		t.Fatalf("QueueDepth = %d after queued run canceled, want 0", d)
	}

	close(blocker.release)
	if err := <-blockErr; err != nil {
		t.Fatalf("blocking run: %v", err)
	}

	// The slot is free again: a fresh run admits and completes.
	if _, err := s.Run(context.Background(), algo.NewWCC()); err != nil {
		t.Fatalf("run after drain: %v", err)
	}
}

// Runs that leave the queue without admission — canceled, or rejected by
// Close — must still report their queue wait, or the latency histogram
// only ever sees waits that ended in admission (survivorship bias).
func TestSchedulerQueuedExitObservesQueueWait(t *testing.T) {
	el := kron(t, 10, 8, 11)
	g := convert(t, el, 6, 4)
	opts := smallOpts()
	opts.MaxConcurrentRuns = 1
	opts.MaxQueuedRuns = 2
	_, s := newSched(t, g, opts)

	blocker := newGated(algo.NewPageRank(5))
	blockErr := make(chan error, 1)
	go func() {
		_, err := s.Run(context.Background(), blocker)
		blockErr <- err
	}()
	<-blocker.entered

	type res struct {
		st  *Stats
		err error
	}
	qctx, qcancel := context.WithCancel(context.Background())
	canceled := make(chan res, 1)
	go func() {
		st, err := s.Run(qctx, algo.NewWCC())
		canceled <- res{st, err}
	}()
	rejected := make(chan res, 1)
	go func() {
		st, err := s.Run(context.Background(), algo.NewWCC())
		rejected <- res{st, err}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.QueueDepth() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("queued runs never appeared in the queue")
		}
		time.Sleep(time.Millisecond)
	}

	time.Sleep(5 * time.Millisecond) // accrue a measurable wait
	qcancel()
	r := <-canceled
	if !errors.Is(r.err, context.Canceled) {
		t.Fatalf("canceled queued run err = %v, want context.Canceled", r.err)
	}
	if r.st == nil || r.st.QueueWait <= 0 {
		t.Fatalf("canceled queued run stats = %+v, want non-nil with QueueWait > 0", r.st)
	}

	closed := make(chan struct{})
	go func() {
		s.Close() // rejects the remaining queued run, then drains
		close(closed)
	}()
	r = <-rejected
	if !errors.Is(r.err, ErrSchedulerClosed) {
		t.Fatalf("rejected queued run err = %v, want ErrSchedulerClosed", r.err)
	}
	if r.st == nil || r.st.QueueWait <= 0 {
		t.Fatalf("rejected queued run stats = %+v, want non-nil with QueueWait > 0", r.st)
	}

	close(blocker.release)
	if err := <-blockErr; err != nil {
		t.Fatalf("blocking run: %v", err)
	}
	<-closed
}

// One rider canceling mid-sweep must not disturb its co-scheduled
// neighbor, and a closed scheduler refuses new work.
func TestSchedulerRiderCancelAndClose(t *testing.T) {
	el := kron(t, 10, 8, 9)
	g := convert(t, el, 6, 4)
	opts := smallOpts()
	opts.MaxConcurrentRuns = 4
	_, s := newSched(t, g, opts)

	ref := algo.NewPageRank(8)
	runAlg(t, g, smallOpts(), ref)

	heavy := newGated(algo.NewPageRank(8))
	heavyErr := make(chan error, 1)
	go func() {
		_, err := s.Run(context.Background(), heavy)
		heavyErr <- err
	}()
	<-heavy.entered

	vctx, vcancel := context.WithCancel(context.Background())
	victimErr := make(chan error, 1)
	go func() {
		_, err := s.Run(vctx, algo.NewWCC())
		victimErr <- err
	}()
	waitActive(t, s, 2)
	vcancel()
	close(heavy.release)

	if err := <-victimErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled rider err = %v, want context.Canceled", err)
	}
	if err := <-heavyErr; err != nil {
		t.Fatalf("surviving rider: %v", err)
	}
	for v, want := range ref.Ranks() {
		if got := heavy.Algorithm.(*algo.PageRank).Ranks()[v]; math.Abs(want-got) > 1e-9 {
			t.Fatalf("survivor rank[%d] = %g, want %g", v, got, want)
		}
	}

	s.Close()
	if _, err := s.Run(context.Background(), algo.NewWCC()); !errors.Is(err, ErrSchedulerClosed) {
		t.Fatalf("run after Close err = %v, want ErrSchedulerClosed", err)
	}
}
