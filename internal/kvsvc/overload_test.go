package kvsvc

// Overload-protection and connection-hygiene tests: the misbehaving
// client matrix (idle, slow-reader, burst-past-budget), the queue-full
// shedding regressions, and the drain-ordering regression. The shared
// adversary is a parked shard worker — the deref hook parks the worker
// mid-traversal exactly like the stress harness's stalled reader, which
// makes "the queue stays full" deterministic instead of a timing race.
// Tests that park the worker with a GET set DisableReadFastPath so the
// GET actually reaches the worker (with the fast path on, the deref hook
// would park the connection's reader goroutine instead — that adversary
// has its own coverage in fastpath_test.go).

import (
	"context"
	"errors"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gosmr/gosmr/internal/arena"
)

// startTuned boots a 1-shard hp++ detect-mode server with the given
// overload knobs and its Serve loop running.
func startTuned(t *testing.T, cfg ServerConfig) (*Server, *Store) {
	t.Helper()
	st, err := NewStore(Config{Shards: 1, Scheme: "hp++", Mode: arena.ModeDetect, Buckets: 32})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Addr = "127.0.0.1:0"
	srv, err := NewServer(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	return srv, st
}

// parkFirstDeref arms a one-shot trap on every pool of st: the next
// dereferencing goroutine (a shard worker mid-Get) parks until release
// is called. release is idempotent.
func parkFirstDeref(st *Store) (parked <-chan struct{}, release func()) {
	p := make(chan struct{})
	r := make(chan struct{})
	var armed atomic.Bool
	armed.Store(true)
	for _, pool := range st.Pools() {
		pool.SetDerefHook(func(uint64) {
			if armed.CompareAndSwap(true, false) {
				close(p)
				<-r
			}
		})
	}
	var once sync.Once
	return p, func() { once.Do(func() { close(r) }) }
}

func clearDerefHooks(st *Store) {
	for _, pool := range st.Pools() {
		pool.SetDerefHook(nil)
	}
}

func shutdownClean(t *testing.T, srv *Server, within time.Duration) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), within)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed > within {
		t.Fatalf("shutdown took %v, deadline was %v", elapsed, within)
	}
}

// TestDispatchShedsWhenQueueFull is the head-of-line regression for the
// read loop: with a 1-deep queue and the only worker parked, dispatch
// used to block the reader forever; now it sheds StatusOverloaded within
// DispatchTimeout while earlier requests stay queued and complete once
// the worker resumes.
func TestDispatchShedsWhenQueueFull(t *testing.T) {
	srv, st := startTuned(t, ServerConfig{
		WorkersPerShard:     1,
		QueueDepth:          1,
		ConnBudget:          32,
		DispatchTimeout:     5 * time.Millisecond,
		DisableReadFastPath: true,
	})
	tc := dialClient(t, srv.Addr())
	tc.send(Request{Op: OpPut, ID: 1, Key: 1, Val: 11})
	tc.recv(1)

	parked, release := parkFirstDeref(st)
	defer release()
	tc.send(Request{Op: OpGet, ID: 2, Key: 1}) // parks the worker mid-deref
	select {
	case <-parked:
	case <-time.After(2 * time.Second):
		t.Fatal("worker never parked on the deref hook")
	}
	tc.send(Request{Op: OpGet, ID: 3, Key: 2}) // fills the 1-deep queue

	// With the worker parked and the queue full, these two must be shed —
	// the pre-overload server would block the read loop here forever.
	tc.send(Request{Op: OpGet, ID: 4, Key: 3}, Request{Op: OpGet, ID: 5, Key: 4})
	got := tc.recv(2)
	for _, id := range []uint32{4, 5} {
		if got[id].Status != StatusOverloaded {
			t.Fatalf("request %d: status %d, want StatusOverloaded (%d)", id, got[id].Status, StatusOverloaded)
		}
	}

	release()
	got = tc.recv(2)
	if got[2].Status != StatusOK || got[2].Val != 11 {
		t.Fatalf("parked get resolved wrong: %+v", got[2])
	}
	if got[3].Status != StatusNotFound {
		t.Fatalf("queued get resolved wrong: %+v", got[3])
	}

	clearDerefHooks(st)
	tc.c.Close()
	shutdownClean(t, srv, 5*time.Second)
	if n := srv.Snapshot().ShedQueueFull; n < 2 {
		t.Fatalf("shed_queue_full = %d, want >= 2", n)
	}
}

// TestShutdownDrainsUnderFullQueue pins the drain-ordering bug: a
// connection whose peer vanished while its requests sat in a full shard
// queue used to leave the reader blocked on the queue send, deadlocking
// connWG.Wait against the workers that only exit after the queues close.
// Non-blocking dispatch makes the drain bounded.
func TestShutdownDrainsUnderFullQueue(t *testing.T) {
	srv, st := startTuned(t, ServerConfig{
		WorkersPerShard:     1,
		QueueDepth:          1,
		ConnBudget:          8,
		DispatchTimeout:     5 * time.Millisecond,
		DisableReadFastPath: true,
	})
	tc := dialClient(t, srv.Addr())
	tc.send(Request{Op: OpPut, ID: 1, Key: 1, Val: 11})
	tc.recv(1)

	parked, release := parkFirstDeref(st)
	defer release()
	tc.send(Request{Op: OpGet, ID: 2, Key: 1})
	select {
	case <-parked:
	case <-time.After(2 * time.Second):
		t.Fatal("worker never parked")
	}

	// Flood past the queue and the budget, then vanish without reading a
	// single response.
	var reqs []Request
	for i := uint32(3); i < 33; i++ {
		reqs = append(reqs, Request{Op: OpGet, ID: i, Key: uint64(i)})
	}
	tc.send(reqs...)
	tc.c.Close()

	release()
	shutdownClean(t, srv, 5*time.Second)
}

// TestShutdownReportsAdminServeError: an admin listener that dies while
// serving must surface from Shutdown instead of vanishing into a
// fire-and-forget goroutine.
func TestShutdownReportsAdminServeError(t *testing.T) {
	srv := startServer(t, "ebr")
	srv.adminLn.Close() // yank the listener out from under the admin server

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := srv.Shutdown(ctx)
	if err == nil {
		t.Fatal("Shutdown returned nil after the admin listener failed")
	}
	if !strings.Contains(err.Error(), "admin listener") {
		t.Fatalf("Shutdown error does not name the admin listener: %v", err)
	}
}

// TestIdleClientEvicted: a client that connects and never writes is cut
// loose by the idle deadline, so it cannot hold connWG (and Shutdown)
// hostage to the force-close path.
func TestIdleClientEvicted(t *testing.T) {
	srv, _ := startTuned(t, ServerConfig{IdleTimeout: 100 * time.Millisecond})
	c, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("server never evicted the idle connection (read err = %v)", err)
	}

	// The eviction already drained connWG: Shutdown must finish fast
	// without resorting to ctx-expiry force-closes.
	start := time.Now()
	shutdownClean(t, srv, 5*time.Second)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("shutdown needed %v despite the idle client being evicted", elapsed)
	}
	if n := srv.Snapshot().EvictedIdle; n < 1 {
		t.Fatalf("evicted_idle = %d, want >= 1", n)
	}
}

// TestSlowReaderEvictionKeepsShardProgressing is the acceptance
// regression: a connection that writes requests but never reads its
// responses cannot stall its shard's worker. Concurrent traffic from a
// healthy connection on the same (only) shard keeps completing while the
// slow client is eventually evicted by the write deadline, and the whole
// run stays free of detect-mode violations.
func TestSlowReaderEvictionKeepsShardProgressing(t *testing.T) {
	srv, _ := startTuned(t, ServerConfig{
		WorkersPerShard: 1,
		QueueDepth:      64,
		ConnBudget:      64,
		WriteTimeout:    250 * time.Millisecond,
		DispatchTimeout: 5 * time.Millisecond,
		// A small capped send buffer is what makes the eviction prompt:
		// responses are 17 bytes and credit-gated, so with the autotuned
		// default the kernel absorbs megabytes of them before a flush
		// ever stalls past the deadline.
		ConnWriteBuffer: 16 << 10,
	})

	// The slow client: shrink its receive buffer so the server's
	// response stream fills it quickly, then write requests forever and
	// never read. Once the unread data overruns the client's receive
	// memory its kernel drops every inbound segment, ACKs included, and
	// both directions freeze with only a few KiB unacknowledged on the
	// server, so the writer may never block (a 128 KiB buffer freezes
	// the same way): eviction must also come from the undrained
	// unacknowledged backlog, not only from a blocked write.
	slow, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	if tcp, ok := slow.(*net.TCPConn); ok {
		tcp.SetReadBuffer(16 << 10)
	}
	var slowWG sync.WaitGroup
	slowWG.Add(1)
	go func() {
		defer slowWG.Done()
		// Write until eviction closes the socket under us (the 30s
		// deadline is only a backstop against a hung test). The flood
		// must outlive the buffer-fill phase: responses accumulate in
		// the never-read socket until the server's writer blocks or its
		// sent responses sit unacknowledged past the write timeout.
		slow.SetWriteDeadline(time.Now().Add(30 * time.Second))
		var buf []byte
		for i := uint32(0); ; i++ {
			buf = AppendRequest(buf[:0], Request{Op: OpPut, ID: i, Key: uint64(i % 512), Val: 7})
			if _, err := slow.Write(buf); err != nil {
				return // evicted: exactly what the test wants
			}
		}
	}()

	// The healthy client shares the shard. Every op must complete within
	// the conn-wide deadline; overload sheds are retried, which is the
	// documented client contract.
	healthy := dialClient(t, srv.Addr())
	healthy.c.SetReadDeadline(time.Now().Add(30 * time.Second))
	for i := uint32(0); i < 100; i++ {
		for {
			healthy.send(Request{Op: OpPut, ID: i, Key: uint64(i), Val: uint64(i) + 100})
			resp := healthy.recv(1)[i]
			if resp.Status == StatusOverloaded {
				time.Sleep(2 * time.Millisecond)
				continue
			}
			if resp.Status != StatusOK {
				t.Fatalf("healthy put %d: status %d", i, resp.Status)
			}
			break
		}
	}
	if srv.Served() < 100 {
		t.Fatalf("served %d ops, want >= 100", srv.Served())
	}

	// The slow client must be evicted (write deadline), which also ends
	// its writer goroutine.
	deadline := time.Now().Add(15 * time.Second)
	for srv.Snapshot().EvictedSlow == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow reader was never evicted by the write deadline")
		}
		time.Sleep(20 * time.Millisecond)
	}
	slowWG.Wait()

	healthy.c.Close()
	shutdownClean(t, srv, 10*time.Second) // nil error ⇒ zero arena violations
}

// TestDeliveryProbeSparesDrainedIdleReader is the false-positive guard
// for the unacknowledged-backlog probe: a client that reads every
// response and then goes quiet for many write timeouts has nothing
// unacknowledged, so it must never count as a slow reader — only the
// idle deadline (disabled here by its 2m default) may close it.
func TestDeliveryProbeSparesDrainedIdleReader(t *testing.T) {
	srv, _ := startTuned(t, ServerConfig{WriteTimeout: 40 * time.Millisecond})
	tc := dialClient(t, srv.Addr())
	tc.c.SetReadDeadline(time.Now().Add(10 * time.Second))
	for round := uint32(0); round < 4; round++ {
		var reqs []Request
		for i := uint32(0); i < 20; i++ {
			id := round*20 + i
			reqs = append(reqs, Request{Op: OpPut, ID: id, Key: uint64(id), Val: 1})
		}
		tc.send(reqs...)
		for id, resp := range tc.recv(len(reqs)) {
			if resp.Status != StatusOK {
				t.Fatalf("round %d: put %d status %d", round, id, resp.Status)
			}
		}
		time.Sleep(5 * 40 * time.Millisecond)
	}
	if n := srv.Snapshot().EvictedSlow; n != 0 {
		t.Fatalf("evicted_slow = %d for a client that read every response", n)
	}
	tc.c.Close()
	shutdownClean(t, srv, 5*time.Second)
}

// TestBurstPastBudgetSheds: a client that bursts past its in-flight
// budget gets StatusOverloaded for the excess — deterministically, since
// the parked worker keeps the budgeted requests in flight — and the
// connection teardown leaks no goroutines.
func TestBurstPastBudgetSheds(t *testing.T) {
	preServer := runtime.NumGoroutine()
	srv, st := startTuned(t, ServerConfig{
		WorkersPerShard:     1,
		QueueDepth:          64,
		ConnBudget:          4,
		DispatchTimeout:     100 * time.Millisecond,
		DisableReadFastPath: true,
	})
	tc := dialClient(t, srv.Addr())
	tc.send(Request{Op: OpPut, ID: 1, Key: 1, Val: 11})
	tc.recv(1)

	parked, release := parkFirstDeref(st)
	defer release()
	tc.send(Request{Op: OpGet, ID: 10, Key: 1}) // parks the worker, holds credit 1
	select {
	case <-parked:
	case <-time.After(2 * time.Second):
		t.Fatal("worker never parked")
	}
	// Credits 2..4 queue behind the parked worker; the next 4 exceed the
	// budget. The burst equals the budget so the uncredited shed lane
	// cannot overflow — every shed is delivered, none dropped.
	tc.send(
		Request{Op: OpGet, ID: 11, Key: 2},
		Request{Op: OpGet, ID: 12, Key: 3},
		Request{Op: OpGet, ID: 13, Key: 4},
		Request{Op: OpGet, ID: 14, Key: 5},
		Request{Op: OpGet, ID: 15, Key: 6},
		Request{Op: OpGet, ID: 16, Key: 7},
		Request{Op: OpGet, ID: 17, Key: 8},
	)
	got := tc.recv(4) // the sheds arrive while 10..13 are still in flight
	for _, id := range []uint32{14, 15, 16, 17} {
		if got[id].Status != StatusOverloaded {
			t.Fatalf("burst request %d: status %d, want StatusOverloaded", id, got[id].Status)
		}
	}
	release()
	got = tc.recv(4)
	if got[10].Status != StatusOK || got[10].Val != 11 {
		t.Fatalf("budgeted get 10 resolved wrong: %+v", got[10])
	}
	for _, id := range []uint32{11, 12, 13} {
		if got[id].Status != StatusNotFound {
			t.Fatalf("budgeted get %d resolved wrong: %+v", id, got[id])
		}
	}
	if n := srv.Snapshot().ShedBudget; n < 4 {
		t.Fatalf("shed_budget = %d, want >= 4", n)
	}

	clearDerefHooks(st)
	tc.c.Close()
	shutdownClean(t, srv, 5*time.Second)

	// No goroutine leak: everything the server and the connection spawned
	// is gone after Shutdown.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > preServer+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before server, %d after shutdown", preServer, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestMaxConnsShedsAtAccept: connections past the cap are closed at
// accept time; capacity freed by a disconnect is reusable.
func TestMaxConnsShedsAtAccept(t *testing.T) {
	srv, _ := startTuned(t, ServerConfig{MaxConns: 2})

	c1 := dialClient(t, srv.Addr())
	c2 := dialClient(t, srv.Addr())
	c1.send(Request{Op: OpPing, ID: 1})
	c1.recv(1)
	c2.send(Request{Op: OpPing, ID: 1})
	c2.recv(1)

	third, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	third.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := third.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("third connection past MaxConns was not shed (read err = %v)", err)
	}
	third.Close()
	if n := srv.Snapshot().ShedConns; n < 1 {
		t.Fatalf("shed_conns = %d, want >= 1", n)
	}

	// Freeing a slot readmits new connections.
	c1.c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Snapshot().LiveConns >= 2 {
		if time.Now().After(deadline) {
			t.Fatal("closed connection never released its slot")
		}
		time.Sleep(10 * time.Millisecond)
	}
	c4 := dialClient(t, srv.Addr())
	c4.send(Request{Op: OpPing, ID: 9})
	if got := c4.recv(1); got[9].Status != StatusOK {
		t.Fatalf("ping after slot reuse: %+v", got[9])
	}

	c2.c.Close()
	c4.c.Close()
	shutdownClean(t, srv, 5*time.Second)
}
