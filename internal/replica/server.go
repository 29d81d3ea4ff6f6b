package replica

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"dcfail/internal/fot"
	"dcfail/internal/serve"
	"dcfail/internal/wire"
)

// ServerOptions tunes the primary-side stream server.
type ServerOptions struct {
	// Heartbeat is how often an idle stream re-sends the tip as a
	// KindHello, so replicas can tell a quiet primary from a black-holed
	// link by read deadline (default 1s).
	Heartbeat time.Duration
	// WriteTimeout bounds each socket write; a replica that stops reading
	// is severed instead of wedging the stream goroutine (default 10s).
	WriteTimeout time.Duration
	// Now stamps write deadlines (nil means time.Now), injectable for
	// deterministic tests.
	Now func() time.Time
	// DisableBinary refuses binary codec negotiation: syncs offering
	// wire.CodecBinV1 are still served, but as NL-JSON. Used to exercise
	// the fallback path and to mimic old primaries.
	DisableBinary bool
}

// streamBufBytes sizes a stream's write buffer: the unit of one socket
// write during catch-up.
const streamBufBytes = 64 << 10

// deadlineWriter refreshes the connection's write deadline before every
// socket write, so WriteTimeout bounds each write however many frames a
// buffered stream batches into it.
type deadlineWriter struct {
	conn    net.Conn
	now     func() time.Time
	timeout time.Duration
}

func (d *deadlineWriter) Write(p []byte) (int, error) {
	d.conn.SetWriteDeadline(d.now().Add(d.timeout))
	return d.conn.Write(p)
}

// Server publishes a serve.State's ticket log and epoch markers to any
// number of replica subscribers. One goroutine per subscriber streams
// rows from the resume position and wakes on every fold via State.Watch.
type Server struct {
	state *serve.State
	ln    net.Listener
	opts  ServerOptions
	now   func() time.Time

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	wg        sync.WaitGroup
	closing   chan struct{}
	closeOnce sync.Once
	closeErr  error
}

// NewServer starts a replication stream server over st on addr (use
// "127.0.0.1:0" for an ephemeral port). Callers must Close it.
func NewServer(addr string, st *serve.State, opts ServerOptions) (*Server, error) {
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = time.Second
	}
	if opts.WriteTimeout <= 0 {
		opts.WriteTimeout = 10 * time.Second
	}
	s := &Server{
		state:   st,
		opts:    opts,
		now:     opts.Now,
		conns:   make(map[net.Conn]struct{}),
		closing: make(chan struct{}),
	}
	if s.now == nil {
		//lint:ignore walltime injection-point default; ServerOptions.Now overrides the clock used for write deadlines
		s.now = time.Now
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("replica: listen: %w", err)
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address replicas dial.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, severs every subscriber stream, and waits for
// the stream goroutines to exit. Idempotent.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		close(s.closing)
		err := s.ln.Close()
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		s.wg.Wait()
		s.closeErr = err
	})
	return s.closeErr
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.closing:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		s.wg.Add(1)
		go s.stream(conn)
	}
}

// stream serves one subscriber: read the resume request, then push rows
// and epoch markers until the connection dies or the server closes.
func (s *Server) stream(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	s.mu.Lock()
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	// One buffered writer for the stream: a fold batch's rows go out in
	// as few socket writes as the buffer allows, flushed once per batch
	// and at every epoch marker, hello and error. Each socket write
	// refreshes the write deadline, so a replica that stops reading is
	// still severed within WriteTimeout.
	w := bufio.NewWriterSize(&deadlineWriter{conn: conn, now: s.now, timeout: s.opts.WriteTimeout}, streamBufBytes)
	queue := func(b []byte) bool {
		_, err := w.Write(b)
		return err == nil
	}
	flush := func() bool { return w.Flush() == nil }
	queueMsg := func(m *Message) bool {
		line, err := encode(m)
		return err == nil && queue(line)
	}
	send := func(m *Message) bool { return queueMsg(m) && flush() }

	// The one request: the replica's resume position.
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 4096), MaxFrameBytes)
	conn.SetReadDeadline(s.now().Add(s.opts.WriteTimeout))
	if !sc.Scan() {
		return
	}
	var req Message
	if err := json.Unmarshal(sc.Bytes(), &req); err != nil || req.Kind != KindSync || req.Row < 0 {
		send(&Message{Kind: KindError, Error: "replica: malformed sync request"})
		return
	}
	tip := s.state.Current()
	if req.Row > tip.Tickets() || req.Epoch > tip.Epoch() {
		// The subscriber holds more history than this primary — a
		// misconfiguration (or a primary restarted with less data) that
		// resending rows cannot fix.
		send(&Message{Kind: KindError,
			Error: fmt.Sprintf("replica: subscriber at (epoch %d, row %d) is ahead of primary (epoch %d, row %d)",
				req.Epoch, req.Row, tip.Epoch(), tip.Tickets())})
		return
	}

	// Codec negotiation: the pick rides on the first (JSON) hello; every
	// frame after that is binary when the offer was accepted.
	codec := ""
	if !s.opts.DisableBinary {
		for _, offer := range req.Codecs {
			if offer == wire.CodecBinV1 {
				codec = offer
				break
			}
		}
	}
	binary := codec == wire.CodecBinV1
	var enc *wire.Encoder
	var frame []byte
	if binary {
		enc = wire.NewEncoder()
	}
	sendBin := func(b []byte) bool { return queue(b) && flush() }
	// queueRow buffers one row frame; the caller flushes after the batch.
	queueRow := func(row int, t *fot.Ticket) bool {
		if binary {
			frame = enc.AppendRow(frame[:0], row, t)
			return queue(frame)
		}
		m, err := rowMessage(row, *t)
		if err != nil {
			send(&Message{Kind: KindError, Error: err.Error()})
			return false
		}
		return queueMsg(m)
	}
	sendEpoch := func(epoch uint64, rows int, foldedAt time.Time) bool {
		if binary {
			frame = wire.AppendEpoch(frame[:0], epoch, rows, foldedAt)
			return sendBin(frame)
		}
		return send(&Message{Kind: KindEpoch, Epoch: epoch, Rows: rows, FoldedAt: foldedAt})
	}
	sendHello := func(epoch uint64, rows int) bool {
		if binary {
			frame = wire.AppendHello(frame[:0], epoch, rows)
			return sendBin(frame)
		}
		return send(&Message{Kind: KindHello, Epoch: epoch, Rows: rows})
	}
	sendError := func(msg string) {
		if binary {
			frame = wire.AppendError(frame[:0], "", msg)
			sendBin(frame)
			return
		}
		send(&Message{Kind: KindError, Error: msg})
	}

	watch := s.state.Watch()
	defer s.state.Unwatch(watch)

	if !send(&Message{Kind: KindHello, Epoch: tip.Epoch(), Rows: tip.Tickets(), Codec: codec}) {
		return
	}

	sentRows, sentEpoch := req.Row, req.Epoch
	heartbeat := time.NewTicker(s.opts.Heartbeat)
	defer heartbeat.Stop()
	for {
		snap := s.state.Current()
		if snap.Tickets() > sentRows {
			rows, err := s.state.Rows(sentRows, snap.Tickets())
			if err != nil {
				sendError(err.Error())
				return
			}
			for i := range rows {
				if !queueRow(sentRows+i, &rows[i]) {
					return
				}
			}
			if !flush() {
				return
			}
			sentRows = snap.Tickets()
		}
		if snap.Epoch() > sentEpoch {
			// One marker per observed fold; collapsed intermediate epochs
			// are fine — the replica jumps straight to this one.
			if !sendEpoch(snap.Epoch(), snap.Tickets(), snap.FoldedAt()) {
				return
			}
			sentEpoch = snap.Epoch()
		}
		select {
		case <-watch:
		case <-heartbeat.C:
			cur := s.state.Current()
			if !sendHello(cur.Epoch(), cur.Tickets()) {
				return
			}
		case <-s.closing:
			return
		}
	}
}
