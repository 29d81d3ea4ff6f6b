package replica

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dcfail/internal/fot"
	"dcfail/internal/serve"
	"dcfail/internal/wire"
)

// SyncerOptions tunes a replica's catch-up loop.
type SyncerOptions struct {
	// Addr is the primary's replication address (NewServer's listener).
	Addr string
	// Dial overrides how the primary is reached — tests route through a
	// faultnet.Proxy here. Nil dials Addr over TCP with a 5s timeout.
	Dial func(addr string) (net.Conn, error)
	// RetryMin/RetryMax bound the reconnect backoff (defaults 50ms / 2s).
	// The backoff is deterministic (doubling, no jitter): replicas of one
	// primary are few, and determinism keeps chaos tests replayable.
	RetryMin, RetryMax time.Duration
	// StallTimeout is the per-read deadline. The primary heartbeats every
	// ServerOptions.Heartbeat, so a read that outlives this is a stalled
	// or black-holed link, not an idle one (default 5s; keep it a few
	// multiples of the primary's heartbeat).
	StallTimeout time.Duration
	// Now stamps deadlines and lag bookkeeping (nil means time.Now).
	Now func() time.Time
	// Codec selects the stream codec. "" and "binary" offer the dense
	// binary row codec at subscribe time, falling back to NL-JSON
	// transparently against primaries that decline or predate it;
	// "json" forces legacy NL-JSON without offering.
	Codec string
}

// SyncStats is a snapshot of the syncer's lifetime counters.
type SyncStats struct {
	Rows        uint64 `json:"rows"`         // rows accepted into the local log
	Dups        uint64 `json:"dups"`         // at-least-once replays skipped by row index
	CRCFailures uint64 `json:"crc_failures"` // frames rejected by checksum
	Reconnects  uint64 `json:"reconnects"`   // times the stream was re-established
	Folds       uint64 `json:"folds"`        // epoch markers applied
	Connected   bool   `json:"connected"`
	TipEpoch    uint64 `json:"tip_epoch"` // newest primary epoch heard of
	LastError   string `json:"last_error,omitempty"`
	// Codec is what the most recent successful handshake negotiated:
	// wire.CodecBinV1 or "json" ("" before the first connection).
	Codec string `json:"codec,omitempty"`
}

// Syncer keeps one serve.State converged with a primary's replication
// stream: it dials, resumes from the local (epoch, row) position, dedups
// replayed rows, verifies CRCs, folds each epoch marker via FoldTo, and
// reconnects with bounded backoff whenever the link fails. Lag() feeds
// the daemon's /healthz so a stuck replica degrades instead of serving
// silently stale epochs forever.
type Syncer struct {
	state *serve.State
	opts  SyncerOptions
	now   func() time.Time

	rows        atomic.Uint64
	dups        atomic.Uint64
	crcFailures atomic.Uint64
	reconnects  atomic.Uint64
	folds       atomic.Uint64
	connected   atomic.Bool
	tipEpoch    atomic.Uint64
	behindSince atomic.Int64 // unix nanos; 0 = caught up
	lastErr     atomic.Pointer[string]
	lastCodec   atomic.Pointer[string]

	mu        sync.Mutex
	conn      net.Conn // live connection, severed by Stop
	wg        sync.WaitGroup
	closing   chan struct{}
	closeOnce sync.Once

	// pending holds CRC-verified rows past the last fold, awaiting their
	// epoch marker. It is owned by the run goroutine and deliberately
	// survives reconnects: the resume row is folded + len(pending), so a
	// flapping link makes monotonic row progress instead of re-pulling
	// the whole epoch suffix every connection (which livelocks when the
	// flap interval is shorter than one epoch's transfer time).
	pending []fot.Ticket
}

// NewSyncer builds a syncer folding into st. Call Start to begin.
func NewSyncer(st *serve.State, opts SyncerOptions) *Syncer {
	if opts.Dial == nil {
		opts.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 5*time.Second)
		}
	}
	if opts.RetryMin <= 0 {
		opts.RetryMin = 50 * time.Millisecond
	}
	if opts.RetryMax < opts.RetryMin {
		opts.RetryMax = 2 * time.Second
	}
	if opts.StallTimeout <= 0 {
		opts.StallTimeout = 5 * time.Second
	}
	s := &Syncer{state: st, opts: opts, now: opts.Now, closing: make(chan struct{})}
	if s.now == nil {
		//lint:ignore walltime injection-point default; SyncerOptions.Now overrides the clock used for deadlines and lag
		s.now = time.Now
	}
	return s
}

// Start launches the catch-up loop. Call once; Stop ends it.
func (s *Syncer) Start() {
	s.wg.Add(1)
	go s.run()
}

// Stop severs the stream and waits for the loop to exit. Idempotent.
func (s *Syncer) Stop() {
	s.closeOnce.Do(func() { close(s.closing) })
	s.mu.Lock()
	if s.conn != nil {
		s.conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// Stats returns the lifetime counters.
func (s *Syncer) Stats() SyncStats {
	st := SyncStats{
		Rows:        s.rows.Load(),
		Dups:        s.dups.Load(),
		CRCFailures: s.crcFailures.Load(),
		Reconnects:  s.reconnects.Load(),
		Folds:       s.folds.Load(),
		Connected:   s.connected.Load(),
		TipEpoch:    s.tipEpoch.Load(),
	}
	if msg := s.lastErr.Load(); msg != nil {
		st.LastError = *msg
	}
	if c := s.lastCodec.Load(); c != nil {
		st.Codec = *c
	}
	return st
}

// Lag reports how long this replica has been behind the newest known
// primary state: zero while connected and caught up, else the time since
// it fell behind (a disconnect or a tip announcement it has not reached).
// Wire it into serve.Daemon.SetLagProbe so /healthz degrades with it.
func (s *Syncer) Lag() time.Duration {
	since := s.behindSince.Load()
	if since == 0 {
		return 0
	}
	return time.Duration(s.now().UnixNano() - since)
}

// markBehind stamps the fell-behind time if not already behind.
func (s *Syncer) markBehind() {
	s.behindSince.CompareAndSwap(0, s.now().UnixNano())
}

// reviseLag re-evaluates behind/caught-up against the known tip.
func (s *Syncer) reviseLag() {
	if s.tipEpoch.Load() > s.state.Current().Epoch() {
		s.markBehind()
	} else if s.connected.Load() {
		s.behindSince.Store(0)
	}
}

func (s *Syncer) fail(err error) {
	msg := err.Error()
	s.lastErr.Store(&msg)
}

func (s *Syncer) run() {
	defer s.wg.Done()
	backoff := s.opts.RetryMin
	for attempt := 0; ; attempt++ {
		select {
		case <-s.closing:
			return
		default:
		}
		if attempt > 0 {
			s.reconnects.Add(1)
			select {
			case <-time.After(backoff):
			case <-s.closing:
				return
			}
			backoff *= 2
			if backoff > s.opts.RetryMax {
				backoff = s.opts.RetryMax
			}
		}
		conn, err := s.opts.Dial(s.opts.Addr)
		if err != nil {
			s.markBehind()
			s.fail(err)
			continue
		}
		s.mu.Lock()
		s.conn = conn
		s.mu.Unlock()
		progressed, err := s.stream(conn)
		conn.Close()
		s.mu.Lock()
		s.conn = nil
		s.mu.Unlock()
		s.connected.Store(false)
		s.markBehind()
		if err != nil {
			s.fail(err)
		}
		if progressed {
			backoff = s.opts.RetryMin
		}
	}
}

// foldPending folds the first take pending rows as epoch and keeps only
// the rest, in a fresh array. The State copies folded rows into its own
// log, so the consumed prefix is garbage — but a reslice would keep a
// catch-up's whole backing array (tens of MB at paper scale) alive, and
// scanned by every GC cycle, until later appends outgrow its capacity.
func (s *Syncer) foldPending(take int, epoch uint64, foldedAt time.Time) error {
	if _, err := s.state.FoldTo(s.pending[:take], epoch, foldedAt); err != nil {
		return err
	}
	rest := s.pending[take:]
	s.pending = nil
	if len(rest) > 0 {
		s.pending = append([]fot.Ticket(nil), rest...)
	}
	return nil
}

// stream runs one connection: subscribe from the resume position (the
// fold boundary plus any retained pending rows), read the JSON hello
// that carries the codec pick, then apply rows and markers — binary
// frames or JSON lines — until the link errors. It reports whether any
// message was applied, so the caller resets backoff only on progress.
func (s *Syncer) stream(conn net.Conn) (progressed bool, err error) {
	local := s.state.Current()
	folded := local.Tickets()
	nextRow := folded + len(s.pending)
	req := &Message{Kind: KindSync, Epoch: local.Epoch(), Row: nextRow}
	if s.opts.Codec != "json" {
		req.Codecs = []string{wire.CodecBinV1}
	}
	sub, err := encode(req)
	if err != nil {
		return false, err
	}
	conn.SetWriteDeadline(s.now().Add(s.opts.StallTimeout))
	if _, err := conn.Write(sub); err != nil {
		return false, fmt.Errorf("replica: subscribe: %w", err)
	}

	// One buffered reader for the whole connection. The handshake line is
	// JSON under either codec, and after a binary pick the primary's
	// frames may already sit in this buffer behind the hello — so the
	// frame reader below must wrap br, never the raw conn (a Scanner
	// cannot be handed off this way, which is why this loop reads lines
	// manually).
	br := bufio.NewReaderSize(conn, 64*1024)
	readLine := func() ([]byte, error) {
		var line []byte
		for {
			chunk, err := br.ReadSlice('\n')
			line = append(line, chunk...)
			if len(line) > MaxFrameBytes {
				return nil, fmt.Errorf("replica: frame exceeds %d bytes", MaxFrameBytes)
			}
			if err == nil {
				return line, nil
			}
			if errors.Is(err, bufio.ErrBufferFull) {
				continue
			}
			if errors.Is(err, io.EOF) {
				return nil, fmt.Errorf("replica: primary closed the stream")
			}
			return nil, fmt.Errorf("replica: stream read: %w", err)
		}
	}

	// Shared frame semantics, codec-neutral. applyHello: the first hello
	// doubles as the connection-established signal; later ones are
	// heartbeats that refresh the tip. applyRow dedups at-least-once
	// replays by row index — the same role as the collector's
	// (AgentID, Seq) index, keyed by the total order the log gives us.
	applyHello := func(epoch uint64) {
		s.connected.Store(true)
		progressed = true
		if epoch > s.tipEpoch.Load() {
			s.tipEpoch.Store(epoch)
		}
		s.reviseLag()
	}
	applyRow := func(row int, t fot.Ticket) error {
		if row > nextRow {
			return fmt.Errorf("replica: row gap: got %d, want %d", row, nextRow)
		}
		s.pending = append(s.pending, t)
		nextRow++
		s.rows.Add(1)
		progressed = true
		return nil
	}
	applyEpoch := func(epoch uint64, rows int, foldedAt time.Time) error {
		if epoch > s.tipEpoch.Load() {
			s.tipEpoch.Store(epoch)
		}
		if epoch <= s.state.Current().Epoch() {
			return nil // marker replay; the fold already happened
		}
		if rows > nextRow {
			return fmt.Errorf("replica: epoch %d needs %d rows, have %d", epoch, rows, nextRow)
		}
		take := rows - folded
		if take < 0 {
			return fmt.Errorf("replica: epoch %d rows %d behind local log %d", epoch, rows, folded)
		}
		if err := s.foldPending(take, epoch, foldedAt); err != nil {
			return err
		}
		folded = rows
		s.folds.Add(1)
		progressed = true
		s.reviseLag()
		return nil
	}

	// The handshake reply: a JSON hello carrying the codec pick, or a
	// terminal rejection.
	conn.SetReadDeadline(s.now().Add(s.opts.StallTimeout))
	line, err := readLine()
	if err != nil {
		return progressed, err
	}
	var hello Message
	if err := json.Unmarshal(line, &hello); err != nil {
		return progressed, fmt.Errorf("replica: decode frame: %w", err)
	}
	switch hello.Kind {
	case KindHello:
		applyHello(hello.Epoch)
		negotiated := hello.Codec
		if negotiated == "" {
			negotiated = "json"
		}
		s.lastCodec.Store(&negotiated)
	case KindError:
		return progressed, fmt.Errorf("replica: primary rejected stream: %s", hello.Error)
	default:
		return progressed, fmt.Errorf("replica: expected hello, got %q", hello.Kind)
	}

	if hello.Codec == wire.CodecBinV1 {
		fr := wire.NewFrameReader(br)
		dec := wire.NewDecoder()
		var t fot.Ticket
		for {
			conn.SetReadDeadline(s.now().Add(s.opts.StallTimeout))
			kind, payload, err := fr.Next()
			if err != nil {
				if errors.Is(err, wire.ErrCRC) {
					s.crcFailures.Add(1)
				}
				if errors.Is(err, io.EOF) {
					return progressed, fmt.Errorf("replica: primary closed the stream")
				}
				return progressed, fmt.Errorf("replica: stream read: %w", err)
			}
			switch kind {
			case wire.KindHello:
				epoch, _, derr := wire.DecodeHello(payload)
				if derr != nil {
					return progressed, derr
				}
				applyHello(epoch)
			case wire.KindRow:
				// Decode before the dedup check: replayed rows must still
				// advance the per-connection symbol table or every later
				// string reference is off by the skipped definitions.
				row, derr := dec.DecodeRowInto(payload, &t)
				if derr != nil {
					return progressed, derr
				}
				if row < nextRow {
					s.dups.Add(1)
					continue
				}
				if err := applyRow(row, t); err != nil {
					return progressed, err
				}
			case wire.KindEpoch:
				epoch, rows, foldedAt, derr := wire.DecodeEpoch(payload)
				if derr != nil {
					return progressed, derr
				}
				if err := applyEpoch(epoch, rows, foldedAt); err != nil {
					return progressed, err
				}
			case wire.KindError:
				_, msg, derr := wire.DecodeError(payload)
				if derr != nil {
					return progressed, derr
				}
				return progressed, fmt.Errorf("replica: primary rejected stream: %s", msg)
			default:
				return progressed, fmt.Errorf("replica: unknown frame kind %d", kind)
			}
		}
	}

	for {
		conn.SetReadDeadline(s.now().Add(s.opts.StallTimeout))
		line, err := readLine()
		if err != nil {
			return progressed, err
		}
		var m Message
		if err := json.Unmarshal(line, &m); err != nil {
			return progressed, fmt.Errorf("replica: decode frame: %w", err)
		}
		switch m.Kind {
		case KindHello:
			applyHello(m.Epoch)
		case KindRow:
			if m.Row < nextRow {
				s.dups.Add(1)
				continue
			}
			t, err := decodeRow(&m)
			if err != nil {
				s.crcFailures.Add(1)
				return progressed, err
			}
			if err := applyRow(m.Row, t); err != nil {
				return progressed, err
			}
		case KindEpoch:
			if err := applyEpoch(m.Epoch, m.Rows, m.FoldedAt); err != nil {
				return progressed, err
			}
		case KindError:
			return progressed, fmt.Errorf("replica: primary rejected stream: %s", m.Error)
		default:
			return progressed, fmt.Errorf("replica: unknown frame kind %q", m.Kind)
		}
	}
}
