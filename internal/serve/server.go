package serve

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/obs"
	"github.com/arrayview/arrayview/internal/query"
	"github.com/arrayview/arrayview/internal/shape"
	"github.com/arrayview/arrayview/internal/transport"
)

// Config tunes a Server. The zero value gets sane defaults.
type Config struct {
	// MaxConcurrent caps queries executing at once (default 8).
	MaxConcurrent int
	// QueueDepth caps queries waiting for a slot beyond MaxConcurrent
	// (default 2*MaxConcurrent). Anything past the queue is rejected with
	// an OverloadError.
	QueueDepth int
	// QueryTimeout bounds one query end to end — queue wait plus
	// evaluation (default 30 seconds; negative disables).
	QueryTimeout time.Duration
	// CacheBytes caps the hot-chunk read cache (default
	// cluster.DefaultReadCacheBytes; negative disables the cache).
	CacheBytes int64
	// IdleTimeout and WriteTimeout mirror transport.ServerConfig: a
	// connection silent for IdleTimeout is dropped, and writing one
	// response is bounded by WriteTimeout. Zero means the transport
	// defaults (5 minutes / 30 seconds).
	IdleTimeout  time.Duration
	WriteTimeout time.Duration
	// ViewCacheBytes caps the epoch-keyed assembled-view cache (default
	// cluster.DefaultViewCacheBytes; negative disables view caching while
	// keeping the plan memo).
	ViewCacheBytes int64
	// JoinWorkers is the snapshot-join fan-out width (<= 0 means
	// GOMAXPROCS, 1 forces the serial kernel).
	JoinWorkers int
}

func (c *Config) maxConcurrent() int {
	if c == nil || c.MaxConcurrent <= 0 {
		return 8
	}
	return c.MaxConcurrent
}

func (c *Config) queueDepth() int {
	if c == nil || c.QueueDepth == 0 {
		return 2 * c.maxConcurrent()
	}
	if c.QueueDepth < 0 {
		return 0
	}
	return c.QueueDepth
}

func (c *Config) queryTimeout() time.Duration {
	switch {
	case c == nil || c.QueryTimeout == 0:
		return 30 * time.Second
	case c.QueryTimeout < 0:
		return 0
	default:
		return c.QueryTimeout
	}
}

func (c *Config) cacheBytes() int64 {
	switch {
	case c == nil || c.CacheBytes == 0:
		return cluster.DefaultReadCacheBytes
	case c.CacheBytes < 0:
		return 0
	default:
		return c.CacheBytes
	}
}

// Stats is the serving daemon's point-in-time health summary: the snapshot
// manager's state, the read cache's counters, and admission totals.
type Stats struct {
	// Epoch is the most recently published epoch.
	Epoch uint64
	// Pins is the number of live snapshot pins; Retained and
	// RetainedBytes size the pre-image versions held for them.
	Pins          int64
	Retained      int64
	RetainedBytes int64
	// CacheHits/CacheMisses/CacheBytes describe the hot-chunk read cache.
	CacheHits   int64
	CacheMisses int64
	CacheBytes  int64
	// Queries counts admitted queries; Rejected counts overload
	// rejections.
	Queries  int64
	Rejected int64
	// Adaptive carries the heavy-light maintenance layer's counters when
	// the daemon maintains adaptively (all zero otherwise).
	Adaptive obs.AdaptiveSnapshot
	// Durable carries the WAL-backed chunk store's counters when the
	// daemon persists its state (all zero for an in-memory daemon).
	Durable obs.DurableSnapshot
	// FastPath carries the query fast path's counters.
	FastPath obs.FastPathSnapshot
}

// decodeStats reads a stats reply document: the JSON of a Stats, so a peer
// built with more or fewer counters still decodes it — names this build does
// not know are skipped, names the document lacks stay zero.
func decodeStats(doc []byte) (Stats, error) {
	var st Stats
	if err := json.Unmarshal(doc, &st); err != nil {
		return Stats{}, fmt.Errorf("serve: decoding stats reply: %w", err)
	}
	return st, nil
}

// HitRate returns the cache hit fraction, 0 before any lookup.
func (s Stats) HitRate() float64 {
	if s.CacheHits+s.CacheMisses == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.CacheHits+s.CacheMisses)
}

// Server answers queries over one maintained view at snapshot isolation.
// Every admitted query pins the current epoch, evaluates against that
// pinned state (through the shared read cache), and releases the pin — so
// maintenance batches commit freely underneath without a reader ever seeing
// staging arrays or a half-applied batch.
//
// The wire surface speaks the transport frame protocol: MsgPing, MsgQuery,
// and MsgSnapshot. Anything else on the connection gets an error frame.
type Server struct {
	eng *query.Engine
	rc  *cluster.ReadCache
	lim *Limiter
	cfg Config

	// adaptive, when set, feeds Stats().Adaptive.
	adaptive *obs.AdaptiveCounters
	// durable, when set, feeds Stats().Durable.
	durable *obs.DurableCounters
	// fpCtrs, when set, feeds Stats().FastPath.
	fpCtrs *obs.FastPathCounters

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool

	wg sync.WaitGroup
}

// NewServer wraps a query engine in an unstarted serving daemon and enables
// snapshot epochs on its cluster (publishing the first epoch from the
// current catalog state) if they are not on already. A nil config uses the
// defaults.
func NewServer(eng *query.Engine, cfg *Config) *Server {
	s := &Server{eng: eng, conns: make(map[net.Conn]struct{})}
	if cfg != nil {
		s.cfg = *cfg
	}
	s.lim = NewLimiter(s.cfg.maxConcurrent(), s.cfg.queueDepth())
	if cap := s.cfg.cacheBytes(); cap > 0 {
		s.rc = cluster.NewReadCache(cap)
	}
	if es := eng.Cluster.Epochs(); !es.Enabled() {
		es.Enable()
	}
	s.fpCtrs = &obs.FastPathCounters{}
	f := query.NewFastPath(s.cfg.ViewCacheBytes, s.fpCtrs)
	if s.cfg.ViewCacheBytes < 0 {
		f.Views = nil
	}
	f.JoinWorkers = s.cfg.JoinWorkers
	// The daemon serves from a fast-path copy of the engine (its Fresh hook
	// included); invalidation rides every epoch publish so a cached view
	// can never cross a commit.
	fe := *eng
	fe.Fast = f
	s.eng = &fe
	if f.Views != nil {
		eng.Cluster.Epochs().OnPublish(f.Views.InvalidateBefore)
	}
	return s
}

// Engine returns the wrapped query engine.
func (s *Server) Engine() *query.Engine { return s.eng }

// SetAdaptive installs the adaptive maintenance counters surfaced through
// Stats. Call before Listen.
func (s *Server) SetAdaptive(counters *obs.AdaptiveCounters) { s.adaptive = counters }

// SetDurable installs the durable store's counters surfaced through Stats.
// Call before Listen.
func (s *Server) SetDurable(counters *obs.DurableCounters) { s.durable = counters }

// ReadCache returns the server's hot-chunk cache (nil when disabled).
func (s *Server) ReadCache() *cluster.ReadCache { return s.rc }

// Stats snapshots the daemon's health counters.
func (s *Server) Stats() Stats {
	es := s.eng.Cluster.Epochs().Stats()
	st := Stats{
		Epoch:         es.Current,
		Pins:          int64(es.Pins),
		Retained:      es.RetainedVers,
		RetainedBytes: es.RetainedBytes,
	}
	if s.rc != nil {
		cs := s.rc.Counters().Snapshot()
		st.CacheHits = cs.Hits
		st.CacheMisses = cs.Misses
		st.CacheBytes = s.rc.Bytes()
	}
	st.Queries, st.Rejected = s.lim.Counters()
	st.Adaptive = s.adaptive.Snapshot()
	st.Durable = s.durable.Snapshot()
	st.FastPath = s.fpCtrs.Snapshot()
	return st
}

// Answer admits and evaluates one query locally through the engine's
// AnswerCached and the server's read cache: the in-process serving path,
// also the body of the wire handler. The returned epoch is the snapshot the
// answer is consistent with.
func (s *Server) Answer(ctx context.Context, queryShape *shape.Shape, mode query.Mode) (*query.Result, uint64, error) {
	if d := s.cfg.queryTimeout(); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	release, err := s.lim.Acquire(ctx)
	if err != nil {
		return nil, 0, err
	}
	defer release()
	return s.eng.AnswerCached(ctx, s.rc, queryShape, mode)
}

// Listen binds the address ("host:port"; ":0" picks a free port) and starts
// accepting query connections in the background.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("serve: server closed")
	}
	if s.ln != nil {
		s.mu.Unlock()
		ln.Close()
		return errors.New("serve: server already listening")
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return nil
}

// Addr returns the bound listen address, or "" before Listen.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops accepting, closes every live connection, and waits for the
// per-connection goroutines to drain. Safe to call more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	idle, write := s.cfg.IdleTimeout, s.cfg.WriteTimeout
	if idle == 0 {
		idle = 5 * time.Minute
	}
	if write == 0 {
		write = 30 * time.Second
	}
	for {
		if idle > 0 {
			if err := conn.SetReadDeadline(time.Now().Add(idle)); err != nil {
				return
			}
		}
		req, rraw, rwire, err := transport.ReadMessageOpt(conn)
		if err != nil {
			return // EOF, deadline, or protocol error: drop the connection
		}
		resp := s.handle(req)
		if write > 0 {
			if err := conn.SetWriteDeadline(time.Now().Add(write)); err != nil {
				return
			}
		}
		// Mirror the request's framing, as the node servers do: compressed
		// requests get compressed responses when that shrinks them.
		compressMin := 0
		if rraw > rwire {
			compressMin = 512
		}
		if _, _, err := transport.WriteMessageOpt(conn, resp, compressMin); err != nil {
			return
		}
	}
}

func errMsg(err error) *transport.Message {
	return &transport.Message{Type: transport.MsgErr, Err: err.Error()}
}

// handle executes one request frame.
func (s *Server) handle(req *transport.Message) *transport.Message {
	switch req.Type {
	case transport.MsgPing:
		return &transport.Message{Type: transport.MsgOK}

	case transport.MsgQuery:
		return s.handleQuery(req)

	case transport.MsgSnapshot:
		doc, err := json.Marshal(s.Stats())
		if err != nil {
			return errMsg(err)
		}
		return &transport.Message{Type: transport.MsgSnapshotReply, Spec: doc}

	default:
		return &transport.Message{Type: transport.MsgErr,
			Err: "serve: unexpected request " + req.Type.String()}
	}
}

func (s *Server) handleQuery(req *transport.Message) *transport.Message {
	sh, err := DecodeShape(req.Spec)
	if err != nil {
		return errMsg(err)
	}
	mode := query.Mode(req.Mode)
	if mode != query.Auto && mode != query.ForceComplete && mode != query.ForceView {
		return &transport.Message{Type: transport.MsgErr,
			Err: "serve: unknown query mode"}
	}
	res, epoch, err := s.Answer(context.Background(), sh, mode)
	if err != nil {
		return errMsg(err)
	}
	resp := &transport.Message{
		Type:  transport.MsgQueryResult,
		Epoch: epoch,
		Flag:  res.Choice.UseView,
	}
	res.Array.EachChunk(func(c *array.Chunk) bool {
		resp.Chunks = append(resp.Chunks, array.EncodeChunk(c))
		return true
	})
	return resp
}

// EncodeShape serializes a query shape's constructive spec for the MsgQuery
// payload.
func EncodeShape(sh *shape.Shape) ([]byte, error) {
	sp, err := sh.Spec()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(sp); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeShape rebuilds a query shape from a MsgQuery payload.
func DecodeShape(raw []byte) (*shape.Shape, error) {
	var sp shape.Spec
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&sp); err != nil {
		return nil, err
	}
	return sp.Build()
}
