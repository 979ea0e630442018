package kvsvc

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gosmr/gosmr/internal/netpoll"
	"github.com/gosmr/gosmr/internal/smr"
)

// ServerConfig parameterizes a Server.
type ServerConfig struct {
	// Addr is the TCP listen address for the wire protocol (e.g.
	// "127.0.0.1:7070"; ":0" picks a free port).
	Addr string
	// AdminAddr is the HTTP admin listen address ("" disables admin).
	AdminAddr string
	// WorkersPerShard is the number of worker goroutines (each owning a
	// shard-bound Handle) per shard (default 2).
	WorkersPerShard int
	// QueueDepth is the per-shard request queue capacity (default 256).
	QueueDepth int
	// MaxConns caps concurrently served connections; accepts beyond the
	// cap are closed immediately (accept-time shedding). 0 selects the
	// default (1024); negative means unlimited.
	MaxConns int
	// ConnBudget is the per-connection in-flight response budget: the
	// number of accepted-but-not-yet-written responses one connection may
	// have outstanding. Requests past the budget are answered with
	// StatusOverloaded instead of queueing, so a connection that stops
	// reading can never back up into a shard worker. 0 selects the
	// default (128).
	ConnBudget int
	// IdleTimeout is the maximum time the server waits for the next frame
	// from a client before evicting the connection. 0 selects the default
	// (2m); negative disables the idle deadline.
	IdleTimeout time.Duration
	// WriteTimeout bounds how long a client may leave responses
	// undrained. A client that stops reading is evicted once a response
	// write blocks this long, or (Linux only, via SIOCOUTQ) once
	// responses already handed to the kernel stay unacknowledged, with
	// the backlog not shrinking and nothing new written, this long after
	// the last flush — the stall a non-reading peer causes when it drops
	// inbound segments, ACKs included, before any write can block. The
	// eviction close is abortive (SO_LINGER 0). 0 selects the default
	// (10s); negative disables both.
	WriteTimeout time.Duration
	// DispatchTimeout is how long a connection's reader waits for space
	// on a full shard queue before answering StatusOverloaded. 0 selects
	// the default (20ms); negative sheds immediately.
	DispatchTimeout time.Duration
	// ConnWriteBuffer caps the kernel send buffer (SO_SNDBUF) of each
	// accepted TCP connection. It bounds the kernel memory one
	// non-reading client can pin — until eviction, whose abortive close
	// frees the backlog at once — and is what makes blocked-write
	// eviction responsive: with the default autotuned buffer the kernel
	// absorbs megabytes of responses before a write ever stalls, so a
	// slow reader is only evicted after its whole receive window AND a
	// multi-megabyte send buffer fill (or, on Linux, once that backlog
	// sits unacknowledged for WriteTimeout). 0 selects the default
	// (64 KiB); negative leaves the kernel default (autotuning).
	ConnWriteBuffer int
	// DisableReadFastPath forces GETs through the shard worker queues
	// like mutations (the pre-fast-path behavior). The zero value serves
	// GETs on the connection goroutine; this exists for A/B benchmarking
	// and for tests that exercise the queue path deterministically.
	DisableReadFastPath bool
	// ReadHandleCache caps the idle per-shard read handles kept for
	// handoff between connections (see readHandlePool). 0 selects the
	// default (16 per shard); negative disables caching, so every
	// connection teardown releases its handles straight back to the
	// store's domains.
	ReadHandleCache int
	// Netpoll serves connections on the event-driven layer
	// (internal/netpoll): a fixed set of poller goroutines instead of a
	// reader+writer goroutine pair per connection. Designed for
	// mostly-idle fleets of 100k+ conns; see npserver.go for the
	// contract deltas (DispatchTimeout does not apply — full shard
	// queues shed immediately).
	Netpoll bool
	// Pollers is the netpoll poller-goroutine count. 0 selects the
	// netpoll default (min(8, GOMAXPROCS)).
	Pollers int
	// NetpollPortable forces netpoll's portable goroutine backend even
	// where epoll is available (A/B testing and the cross-backend test
	// matrix).
	NetpollPortable bool
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.WorkersPerShard <= 0 {
		c.WorkersPerShard = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxConns == 0 {
		c.MaxConns = 1024
	}
	if c.ConnBudget <= 0 {
		c.ConnBudget = 128
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.DispatchTimeout == 0 {
		c.DispatchTimeout = 20 * time.Millisecond
	}
	if c.ConnWriteBuffer == 0 {
		c.ConnWriteBuffer = 64 << 10
	}
	if c.ReadHandleCache == 0 {
		c.ReadHandleCache = 16
	}
	return c
}

// outMsg is one queued response plus whether it holds one of the
// connection's budget credits. Credits are released by the writer only
// after the response is written (or the connection is declared broken),
// so the budget tracks what the client has actually consumed.
type outMsg struct {
	resp     Response
	credited bool
}

// request is one decoded wire request bound for a shard queue, carrying
// the per-connection response channel. The response send is credited and
// therefore can never block (see serveConn's capacity invariant), which
// is the property that keeps a slow client from stalling a shard worker.
// pending, when non-nil, is the connection's mutation counter for the
// target shard; the worker decrements it after executing the request (at
// which point the mutation is applied), which is what lets the reader's
// GET fast path prove it cannot overtake this connection's own writes.
// Exactly one of out (goroutine mode) and nc (netpoll mode) is set; in
// netpoll mode the worker answers through the conn's nonblocking
// outbound buffer instead of a response channel.
type request struct {
	req     Request
	out     chan<- outMsg
	nc      *npConn
	pending *atomic.Int64
}

// Server fronts a Store with the wire protocol: per-connection pipelined
// reads, per-shard worker pools (so every worker participates in exactly
// one shard's reclamation domain), batched writes, and an HTTP admin
// endpoint serving live per-shard smr.Stats.
//
// Overload model: the server never lets one peer block shared progress.
// Accepts past MaxConns are shed at accept time; requests past a
// connection's ConnBudget or into a shard queue that stays full past
// DispatchTimeout are answered StatusOverloaded; connections that stop
// sending (IdleTimeout) or stop reading (WriteTimeout) are evicted. All
// five events are counted and exported via AdminStats.
type Server struct {
	cfg   ServerConfig
	store *Store

	ln       net.Listener
	adminLn  net.Listener
	admin    *http.Server
	adminErr chan error

	queues   []chan request
	workerWG sync.WaitGroup

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	connWG sync.WaitGroup

	// Netpoll mode (cfg.Netpoll): poll owns every conn's readiness and
	// I/O; npConns tracks live handlers for drain; pollerRH is one
	// lazily-filled per-shard read-handle set per poller — the GET fast
	// path's handles are owned per poller, not per conn, which is what
	// keeps Registry.Len() flat at idle-fleet scale.
	poll     netpoll.Poll
	pollerRH []*connReadHandles
	npMu     sync.Mutex
	npConns  map[*npConn]struct{}
	npWG     sync.WaitGroup

	readPool *readHandlePool

	draining  atomic.Bool
	accepted  atomic.Int64
	served    atomic.Int64
	fastGets  atomic.Int64 // GETs served on the connection goroutine
	liveConns atomic.Int64

	shedConns     atomic.Int64 // accepts closed at the MaxConns cap
	shedBudget    atomic.Int64 // StatusOverloaded: connection budget exceeded
	shedQueueFull atomic.Int64 // StatusOverloaded: shard queue full past DispatchTimeout
	shedDropped   atomic.Int64 // budget sheds and pings dropped because the writer is stalled too
	evictedIdle   atomic.Int64 // connections evicted by the read (idle) deadline
	evictedSlow   atomic.Int64 // connections evicted by the write deadline

	// Unread-backlog gauges (SIOCOUTQ), sampled at each slow-reader
	// eviction: the explicit staleness signal that keeps working once
	// responses outgrow tiny frames (ROADMAP). Zero where the platform
	// can't answer.
	evictedSlowOutqLast atomic.Int64
	evictedSlowOutqMax  atomic.Int64
}

// NewServer binds the listeners and starts the shard worker pools; call
// Serve to start accepting. The server owns store's drain: Shutdown
// calls store.Drain after the last worker exits.
func NewServer(store *Store, cfg ServerConfig) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, store: store, conns: map[net.Conn]struct{}{}}
	s.readPool = newReadHandlePool(store, cfg.ReadHandleCache)

	var err error
	if cfg.Netpoll {
		s.npConns = map[*npConn]struct{}{}
		pcfg := netpoll.Config{
			Pollers:           cfg.Pollers,
			IdleTimeout:       cfg.IdleTimeout,
			WriteStallTimeout: cfg.WriteTimeout,
			ForcePortable:     cfg.NetpollPortable,
		}
		if s.poll, err = netpoll.New(pcfg); err != nil {
			return nil, err
		}
		s.pollerRH = make([]*connReadHandles, len(s.poll.ConnCounts()))
		for i := range s.pollerRH {
			s.pollerRH[i] = newConnReadHandles(s.readPool)
		}
	}
	if s.ln, err = net.Listen("tcp", cfg.Addr); err != nil {
		if s.poll != nil {
			s.poll.Close()
		}
		return nil, err
	}
	if cfg.AdminAddr != "" {
		if s.adminLn, err = net.Listen("tcp", cfg.AdminAddr); err != nil {
			s.ln.Close()
			return nil, err
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/stats", s.handleStats)
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			fmt.Fprintln(w, "ok")
		})
		s.admin = &http.Server{Handler: mux}
		s.adminErr = make(chan error, 1)
		go func() { s.adminErr <- s.admin.Serve(s.adminLn) }()
	}

	for i := 0; i < store.NumShards(); i++ {
		q := make(chan request, cfg.QueueDepth)
		s.queues = append(s.queues, q)
		for w := 0; w < cfg.WorkersPerShard; w++ {
			h := store.NewShardHandle(i)
			s.workerWG.Add(1)
			go s.shardWorker(q, h)
		}
	}
	return s, nil
}

// Addr returns the wire listener's address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// AdminAddr returns the admin listener's address, or "".
func (s *Server) AdminAddr() string {
	if s.adminLn == nil {
		return ""
	}
	return s.adminLn.Addr().String()
}

// Serve accepts connections until Shutdown closes the listener. It
// returns nil on graceful shutdown. Accepts past MaxConns are shed
// (closed immediately) so a connection flood cannot exhaust goroutines;
// only the accept loop increments liveConns, so the cap is strict.
func (s *Server) Serve() error {
	for {
		c, err := s.ln.Accept()
		if err != nil {
			if s.draining.Load() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.accepted.Add(1)
		if max := s.cfg.MaxConns; max > 0 && s.liveConns.Load() >= int64(max) {
			s.shedConns.Add(1)
			c.Close()
			continue
		}
		if tc, ok := c.(*net.TCPConn); ok && s.cfg.ConnWriteBuffer > 0 {
			tc.SetWriteBuffer(s.cfg.ConnWriteBuffer)
		}
		s.liveConns.Add(1)
		if s.poll != nil {
			s.acceptNetpoll(c)
			continue
		}
		s.connMu.Lock()
		s.conns[c] = struct{}{}
		s.connMu.Unlock()
		s.connWG.Add(1)
		go s.serveConn(c)
	}
}

// shardWorker executes requests for one shard with its own handle. The
// pending decrement happens after execute and before the response send:
// once it hits zero the mutation is already applied, so a fast-path read
// that observes zero cannot miss it.
func (s *Server) shardWorker(q <-chan request, h Handle) {
	defer s.workerWG.Done()
	for r := range q {
		resp := execute(h, r.req)
		if r.pending != nil {
			r.pending.Add(-1)
		}
		if r.nc != nil {
			// Netpoll mode: answer through the conn's nonblocking
			// outbound buffer. The inflight decrement comes after the
			// send so drain's inflight==0 ∧ Buffered()==0 check cannot
			// miss a response that is about to be buffered.
			r.nc.send(resp, true)
			r.nc.inflight.Add(-1)
		} else {
			r.out <- outMsg{resp: resp, credited: true}
		}
		s.served.Add(1)
	}
}

// execute runs one request against a handle.
func execute(h Handle, r Request) Response {
	switch r.Op {
	case OpGet:
		if v, ok := h.Get(r.Key); ok {
			return Response{ID: r.ID, Status: StatusOK, Val: v}
		}
		return Response{ID: r.ID, Status: StatusNotFound}
	case OpPut:
		if Put(h, r.Key, r.Val) {
			return Response{ID: r.ID, Status: StatusOK}
		}
		return Response{ID: r.ID, Status: StatusErr}
	case OpDel:
		if h.Delete(r.Key) {
			return Response{ID: r.ID, Status: StatusOK}
		}
		return Response{ID: r.ID, Status: StatusNotFound}
	}
	return Response{ID: r.ID, Status: StatusErr}
}

// serveConn owns one connection: a read loop decoding pipelined frames,
// executing GETs in place (the read fast path) and dispatching mutations
// to shard queues, and a writer goroutine batching responses back out.
//
// Capacity invariant (the no-stall guarantee): out has 2·B slots for a
// budget of B. Credited messages — dispatched requests, fast-path gets,
// and queue-full sheds — are gated by the credits semaphore, so at most B
// of them exist between acquire and the writer's release; uncredited
// messages (budget sheds and pings) are capped at B by the uncredited
// counter (the reader drops the message, counted, when even that lane is
// full). Any sender of a credited message therefore always finds a free
// slot: credited-in-channel ≤ B−1 while it holds its own credit, and
// uncredited-in-channel ≤ B. Shard workers send only credited messages,
// so they can NEVER block on a connection, no matter how the peer
// behaves — the service-layer analogue of the bounded-garbage guarantee
// the reclamation schemes give against stalled threads.
//
// The fast path preserves the invariant with the same argument: the
// reader executes the get only after taking a credit, so its send is a
// credited send and finds a slot like any worker's would. Because the
// reader is itself the sender, it cannot even race its own budget — the
// send happens-before the next frame is read. The get must still never
// *stall* the read loop: Get on every engine/scheme is a bounded
// wait-free traversal (no helping, no unbounded retry; somap may lazily
// insert bucket dummies, which is a bounded handle-local op), so the
// reader returns to ReadFrame in bounded time.
//
// Ordering: a fast-path get may overtake *other* requests, but never this
// connection's own mutations. The reader counts its in-queue mutations
// per shard (pending); a get takes the fast path only when the target
// shard's count is zero — the counter is decremented by the worker after
// the mutation is applied, and only the reader increments it, so zero
// means every mutation this connection sent to that shard has executed.
// Otherwise the get rides the queue behind them, exactly as before.
func (s *Server) serveConn(c net.Conn) {
	defer s.connWG.Done()
	defer func() {
		s.connMu.Lock()
		delete(s.conns, c)
		s.connMu.Unlock()
		c.Close()
		s.liveConns.Add(-1)
	}()

	budget := s.cfg.ConnBudget
	br := bufio.NewReader(c)
	bw := bufio.NewWriter(c)
	out := make(chan outMsg, 2*budget)
	credits := make(chan struct{}, budget)
	for i := 0; i < budget; i++ {
		credits <- struct{}{}
	}
	var uncredited atomic.Int64 // uncredited messages enqueued and not yet dequeued
	var inflight sync.WaitGroup

	fastPath := !s.cfg.DisableReadFastPath
	rh := newConnReadHandles(s.readPool)
	// pending[i] counts this connection's mutations dispatched to shard i
	// and not yet executed; only the reader increments, only workers
	// decrement (after applying), so a zero read proves the fast path
	// cannot overtake our own writes.
	pending := make([]atomic.Int64, s.store.NumShards())
	var dispatchTimer *time.Timer
	defer func() {
		if dispatchTimer != nil {
			dispatchTimer.Stop()
		}
	}()

	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		var buf []byte
		broken := false
		probe := newDeliveryProbe(c, s.cfg.WriteTimeout)
		defer probe.stop()
		fail := func(err error) {
			broken = true
			probe.stop()
			if errors.Is(err, os.ErrDeadlineExceeded) {
				s.evictedSlow.Add(1)
				if q, ok := netpoll.SockOutq(c); ok {
					s.recordEvictedOutq(q)
				}
				// Abortive close: free the unacknowledged backlog now
				// instead of leaving an orphaned socket in FIN-WAIT-1 to
				// pin it until the kernel gives up retransmitting.
				if tc, ok := c.(*net.TCPConn); ok {
					tc.SetLinger(0)
				}
			}
			// Evict: closing the connection kicks the read loop out of
			// its blocking read, so the whole connection tears down
			// instead of silently discarding responses forever.
			c.Close()
		}
		for {
			var m outMsg
			var ok bool
			select {
			case m, ok = <-out:
			case <-probe.C():
				if probe.fire(len(out) > 0) {
					fail(os.ErrDeadlineExceeded)
				}
				continue
			}
			if !ok {
				break
			}
			if !broken {
				buf = AppendResponse(buf[:0], m.resp)
				if s.cfg.WriteTimeout > 0 {
					c.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
				}
				if _, err := bw.Write(buf); err != nil {
					fail(err)
				} else if len(out) == 0 {
					// Batch boundary: flush only when no more responses
					// are queued, so a pipelined burst costs one syscall.
					if err := bw.Flush(); err != nil {
						fail(err)
					} else {
						probe.flushed()
					}
				}
			}
			if m.credited {
				credits <- struct{}{}
			} else {
				uncredited.Add(-1)
			}
			inflight.Done()
		}
		if !broken {
			// Fresh deadline for the final flush: the last per-response
			// deadline may be nearly spent (or long expired on an idle
			// teardown), and a peer that stalls exactly here would
			// otherwise pin serveConn in writerWG.Wait for however much
			// stale deadline happens to remain.
			if s.cfg.WriteTimeout > 0 {
				c.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
			}
			if err := bw.Flush(); err != nil {
				fail(err)
			}
		}
	}()

	var frame []byte
	for {
		if s.cfg.IdleTimeout > 0 {
			c.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		}
		var err error
		frame, err = ReadFrame(br, frame)
		if err != nil {
			// io.EOF is a clean close; a deadline expiry is an idle
			// eviction; anything else (truncated frame, garbage length,
			// oversized frame) poisons the byte stream. The connection is
			// dropped either way.
			if errors.Is(err, os.ErrDeadlineExceeded) {
				s.evictedIdle.Add(1)
			}
			break
		}
		req, err := DecodeRequest(frame)
		if err != nil {
			break
		}

		if req.Op == OpPing {
			// Pings ride the uncredited lane and never consume budget: a
			// keepalive must not compete with data responses for credits,
			// or a saturated-but-healthy connection would read
			// StatusOverloaded for its liveness probe (see the OpPing
			// contract in wire.go). The lane's B-bound still holds; if
			// even it is full the writer is stalled and the ping is
			// dropped, counted — the peer is not reading anyway.
			if uncredited.Load() < int64(budget) {
				uncredited.Add(1)
				inflight.Add(1)
				out <- outMsg{resp: Response{ID: req.ID, Status: StatusOK}}
			} else {
				s.shedDropped.Add(1)
			}
			continue
		}

		select {
		case <-credits:
		default:
			// Budget exceeded: the client already has ConnBudget
			// responses it has not read. Shed on the bounded uncredited
			// lane; if even that is full the writer is stalled and the
			// shed is dropped — the client's request timeout covers it.
			s.shedBudget.Add(1)
			if uncredited.Load() < int64(budget) {
				uncredited.Add(1)
				inflight.Add(1)
				out <- outMsg{resp: Response{ID: req.ID, Status: StatusOverloaded}}
			} else {
				s.shedDropped.Add(1)
			}
			continue
		}
		inflight.Add(1)
		i := s.store.ShardOf(req.Key)
		if fastPath && req.Op == OpGet && pending[i].Load() == 0 {
			// Read fast path: execute on this goroutine with the
			// connection's own shard handle — no queue, no worker, no
			// cross-goroutine hop. Credited send, same capacity proof as
			// a worker's (see above).
			out <- outMsg{resp: execute(rh.handle(i), req), credited: true}
			s.served.Add(1)
			s.fastGets.Add(1)
			continue
		}
		if isMutation(req.Op) {
			pending[i].Add(1)
		}
		q := s.queues[i]
		r := request{req: req, out: out}
		if isMutation(req.Op) {
			r.pending = &pending[i]
		}
		select {
		case q <- r:
		default:
			if !s.dispatchSlow(q, r, &dispatchTimer) {
				if r.pending != nil {
					r.pending.Add(-1) // shed, never executed
				}
				s.shedQueueFull.Add(1)
				out <- outMsg{resp: Response{ID: req.ID, Status: StatusOverloaded}, credited: true}
			}
		}
	}
	inflight.Wait() // all accepted requests answered (or shed) and handed to the writer
	rh.release()    // hand the read handles to the pool for the next connection
	close(out)
	writerWG.Wait()
}

// deliveryProbe is the writer's second slow-reader detector, for the
// stall the per-write deadline cannot see. A peer that stops reading can
// freeze its connection with only a few KiB of responses unacknowledged:
// once its receive memory overruns it drops every inbound segment, ACKs
// included, so the server's send buffer never fills, no write ever
// blocks, and the write deadline never fires. The probe samples the
// socket's unacknowledged backlog (SIOCOUTQ) every timeout/4 while the
// writer is idle and reports a stall once that backlog has stayed above
// zero without shrinking, with nothing new written, for a whole timeout
// since the last flush (or the last shrink it saw) — the same bound the
// write deadline puts on a blocked write. The ioctl runs only when the
// probe's timer fires, never on the flush path; where SIOCOUTQ is
// unavailable the probe switches itself off at its first tick and the
// write deadline alone remains.
type deliveryProbe struct {
	c       net.Conn
	timeout time.Duration
	step    time.Duration
	timer   *time.Timer
	armed   bool      // timer running, its tick not yet consumed
	off     bool      // no write deadline, no SIOCOUTQ, or conn evicted
	since   time.Time // start of the current no-progress window
	lastQ   int       // backlog at this window's previous sample; -1: none yet
}

func newDeliveryProbe(c net.Conn, timeout time.Duration) *deliveryProbe {
	return &deliveryProbe{c: c, timeout: timeout, step: timeout / 4, off: timeout <= 0}
}

// C is the tick channel the writer selects on; nil (never ready) while
// the probe is disarmed.
func (p *deliveryProbe) C() <-chan time.Time {
	if !p.armed {
		return nil
	}
	return p.timer.C
}

// arm starts the timer. Only called with no tick pending (never armed,
// or the last tick consumed), so Reset cannot leave a stale tick behind.
func (p *deliveryProbe) arm(d time.Duration) {
	if p.timer == nil {
		p.timer = time.NewTimer(d)
	} else {
		p.timer.Reset(d)
	}
	p.armed = true
}

// flushed opens a new no-progress window: fresh bytes just reached the
// kernel. A clock read, and a timer start only when none is running.
func (p *deliveryProbe) flushed() {
	if p.off {
		return
	}
	p.since, p.lastQ = time.Now(), -1
	if !p.armed {
		p.arm(p.step)
	}
}

// fire consumes one tick and reports whether the peer has left the
// backlog undrained for the whole timeout. busy means responses are
// queued: the writer is about to write (a blocked write is the write
// deadline's job), so there is nothing to sample yet.
func (p *deliveryProbe) fire(busy bool) bool {
	p.armed = false
	if busy {
		p.arm(p.step)
		return false
	}
	now := time.Now()
	if d := p.since.Add(p.step).Sub(now); d > 0 {
		p.arm(d) // flushed since this tick was armed
		return false
	}
	q, ok := netpoll.SockOutq(p.c)
	if !ok {
		p.off = true
		return false
	}
	if q == 0 {
		return false // all acknowledged; the next flush re-arms
	}
	if p.lastQ >= 0 && q < p.lastQ {
		p.since = now // still draining, just slowly
	}
	p.lastQ = q
	left := p.since.Add(p.timeout).Sub(now)
	if left <= 0 {
		return true
	}
	p.arm(min(p.step, left))
	return false
}

// stop disarms the probe for good (eviction or writer exit).
func (p *deliveryProbe) stop() {
	p.off, p.armed = true, false
	if p.timer != nil {
		p.timer.Stop()
	}
}

// isMutation reports whether op changes store state (and therefore rides
// the worker queue and counts toward the per-shard pending counter).
func isMutation(op byte) bool { return op == OpPut || op == OpDel }

// dispatchSlow waits up to DispatchTimeout for space on a full shard
// queue; false means the request must be shed. The wait is the only
// place a connection's reader blocks on shared state, and it is bounded
// — a full queue can delay one reader by at most the timeout, never
// wedge it (the pre-overload server blocked here forever, which let one
// slow shard hold every connection's read loop and Shutdown hostage).
//
// t caches the connection's timer across calls: this path is hot exactly
// when the server is overloaded (every frame meets a full queue), and a
// fresh time.Timer per event put allocator and runtime-timer pressure on
// the one code path that needed to stay cheap. The Stop/drain on the
// send-won branch leaves the timer fully consumed, so the next Reset
// starts clean under the pre-1.23 timer semantics this module targets.
func (s *Server) dispatchSlow(q chan<- request, r request, t **time.Timer) bool {
	d := s.cfg.DispatchTimeout
	if d <= 0 {
		return false
	}
	if *t == nil {
		*t = time.NewTimer(d)
	} else {
		(*t).Reset(d)
	}
	select {
	case q <- r:
		if !(*t).Stop() {
			<-(*t).C
		}
		return true
	case <-(*t).C:
		return false
	}
}

// Shutdown gracefully drains the server: stop accepting, let live
// connections finish their pipelines (force-closing them if ctx expires
// first), stop the shard workers, drain the store's reclamation domains,
// and stop the admin endpoint. It returns an error if the admin listener
// failed while serving or if any arena pool recorded a detect-mode
// violation (use-after-free or double free).
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.ln.Close()

	if s.poll != nil {
		s.drainNetpoll(ctx)
	} else {
		done := make(chan struct{})
		go func() {
			s.connWG.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			s.connMu.Lock()
			for c := range s.conns {
				c.Close()
			}
			s.connMu.Unlock()
			<-done
		}
	}

	for _, q := range s.queues {
		close(q)
	}
	s.workerWG.Wait()
	// Netpoll mode: the pollers are gone, so the per-poller fast-path
	// handle sets can go back to the pool before the final pass.
	for _, rh := range s.pollerRH {
		rh.release()
	}
	// Every connection has returned its read handles by now (connWG), so
	// the pool holds all idle fast-path handles; release them before the
	// store's final reclamation pass.
	s.readPool.drain()
	s.store.Drain()

	var errs []error
	if s.admin != nil {
		s.admin.Shutdown(context.Background())
		// Serve has returned by now (its listener is closed); surface any
		// failure other than the clean ErrServerClosed instead of having
		// lost it to a fire-and-forget goroutine.
		if err := <-s.adminErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, fmt.Errorf("kvsvc: admin listener: %w", err))
		}
	}

	if uaf, df := s.store.BugCounts(); uaf > 0 || df > 0 {
		errs = append(errs, fmt.Errorf("kvsvc: arena detected %d use-after-free and %d double-free violations", uaf, df))
	}
	return errors.Join(errs...)
}

// Served returns the number of requests executed (by shard workers or on
// the connection-goroutine read fast path).
func (s *Server) Served() int64 { return s.served.Load() }

// FastGets returns the number of GETs served on the read fast path.
func (s *Server) FastGets() int64 { return s.fastGets.Load() }

// AdminStats is the JSON document served at the admin endpoint's /stats
// (and scraped by kvload): store-wide totals, the overload/eviction
// counters, plus one smr.Stats row per shard with arena gauges filled.
type AdminStats struct {
	Scheme        string `json:"scheme"`
	Engine        string `json:"engine"`
	Shards        int    `json:"shards"`
	AcceptedConns int64  `json:"accepted_conns"`
	LiveConns     int64  `json:"live_conns"`
	ServedOps     int64  `json:"served_ops"`
	FastpathGets  int64  `json:"fastpath_gets"`
	LiveHandles   int    `json:"live_handles"`
	ShedConns     int64  `json:"shed_conns"`
	ShedBudget    int64  `json:"shed_budget"`
	ShedQueueFull int64  `json:"shed_queue_full"`
	ShedDropped   int64  `json:"shed_dropped"`
	ShedTotal     int64  `json:"shed_total"`
	EvictedIdle   int64  `json:"evicted_idle"`
	EvictedSlow   int64  `json:"evicted_slow"`
	// Unread-backlog (SIOCOUTQ) sampled at the most recent / worst
	// slow-reader eviction; 0 where unsupported.
	EvictedSlowOutqBytes    int64 `json:"evicted_slow_outq_bytes"`
	EvictedSlowOutqMaxBytes int64 `json:"evicted_slow_outq_max_bytes"`
	// Process-level gauges for the idle-fleet accounting: kvload derives
	// bytes-per-conn and the O(pollers+workers) goroutine check from
	// these (request /stats?gc=1 for a post-GC heap reading).
	Goroutines      int   `json:"goroutines"`
	HeapInuseBytes  int64 `json:"heap_inuse_bytes"`
	StackInuseBytes int64 `json:"stack_inuse_bytes"`
	// Netpoll reports whether the event-driven connection layer is
	// serving; PollerConns is live conns per poller (empty when off).
	Netpoll     bool   `json:"netpoll"`
	NetpollKind string `json:"netpoll_kind,omitempty"`
	PollerConns []int  `json:"poller_conns,omitempty"`

	ArenaLiveBytes  int64       `json:"arena_live_bytes"`
	ArenaPeakBytes  int64       `json:"arena_peak_bytes"`
	ArenaUAF        int64       `json:"arena_uaf"`
	ArenaDoubleFree int64       `json:"arena_double_free"`
	Total           smr.Stats   `json:"total"`
	PerShard        []smr.Stats `json:"per_shard"`
}

// recordEvictedOutq updates the slow-eviction unread-backlog gauges.
func (s *Server) recordEvictedOutq(q int) {
	s.evictedSlowOutqLast.Store(int64(q))
	for {
		m := s.evictedSlowOutqMax.Load()
		if int64(q) <= m || s.evictedSlowOutqMax.CompareAndSwap(m, int64(q)) {
			return
		}
	}
}

// Snapshot builds the AdminStats document.
func (s *Server) Snapshot() AdminStats {
	per := s.store.ShardStats()
	at := s.store.ArenaTotals()
	shedB, shedQ, shedC := s.shedBudget.Load(), s.shedQueueFull.Load(), s.shedConns.Load()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var pollerConns []int
	kind := ""
	if s.poll != nil {
		pollerConns = s.poll.ConnCounts()
		kind = s.poll.Kind()
	}
	return AdminStats{
		Scheme:                  s.store.Scheme(),
		Engine:                  s.store.Engine(),
		Shards:                  s.store.NumShards(),
		AcceptedConns:           s.accepted.Load(),
		LiveConns:               s.liveConns.Load(),
		ServedOps:               s.served.Load(),
		FastpathGets:            s.fastGets.Load(),
		LiveHandles:             s.store.LiveHandles(),
		ShedConns:               shedC,
		ShedBudget:              shedB,
		ShedQueueFull:           shedQ,
		ShedDropped:             s.shedDropped.Load(),
		ShedTotal:               shedB + shedQ + shedC,
		EvictedIdle:             s.evictedIdle.Load(),
		EvictedSlow:             s.evictedSlow.Load(),
		EvictedSlowOutqBytes:    s.evictedSlowOutqLast.Load(),
		EvictedSlowOutqMaxBytes: s.evictedSlowOutqMax.Load(),
		Goroutines:              runtime.NumGoroutine(),
		HeapInuseBytes:          int64(ms.HeapInuse),
		StackInuseBytes:         int64(ms.StackInuse),
		Netpoll:                 s.poll != nil,
		NetpollKind:             kind,
		PollerConns:             pollerConns,
		ArenaLiveBytes:          at.Bytes,
		ArenaPeakBytes:          at.PeakBytes,
		ArenaUAF:                at.UAF,
		ArenaDoubleFree:         at.DoubleFree,
		Total:                   AggregateStats(per),
		PerShard:                per,
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	// ?gc=1 forces a collection first so heap_inuse_bytes measures live
	// memory, not float — the difference between "bytes per conn" and
	// "bytes the allocator hasn't gotten to yet" at idle-fleet scale.
	if r.URL.Query().Get("gc") == "1" {
		runtime.GC()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Snapshot())
}
