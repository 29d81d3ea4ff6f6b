package replica

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dcfail/internal/serve"
	"dcfail/internal/wire"
)

// countingConn counts the socket writes and bytes a stream makes, and
// signals when the stream closes its end.
type countingConn struct {
	net.Conn
	writes    atomic.Int64
	bytes     atomic.Int64
	closed    chan struct{}
	closeOnce sync.Once
}

func newCountingConn(c net.Conn) *countingConn {
	return &countingConn{Conn: c, closed: make(chan struct{})}
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// serveConn runs srv's stream over conn, as its accept loop does for an
// accepted connection; srv.Close severs and joins it.
func serveConn(srv *Server, conn net.Conn) {
	srv.wg.Add(1)
	go srv.stream(conn)
}

// foldedPrimary returns a primary holding the small world in one epoch.
func foldedPrimary(t *testing.T) *serve.State {
	t.Helper()
	trace, census := smallWorld(t)
	primary := serve.NewState(census, 0)
	primary.Fold(trace.Tickets, time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC))
	return primary
}

// TestServerBatchesCatchUpWrites: a binary catch-up of N rows reaches
// the replica in about one socket write per stream buffer, not one per
// row — the rows of a fold batch are flushed once.
func TestServerBatchesCatchUpWrites(t *testing.T) {
	primary := foldedPrimary(t)
	srv, err := NewServer("127.0.0.1:0", primary, ServerOptions{Heartbeat: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, server := net.Pipe()
	conn := newCountingConn(server)
	serveConn(srv, conn)
	var dials atomic.Int64
	opts := fastSyncer("pipe")
	opts.Dial = func(string) (net.Conn, error) {
		if dials.Add(1) > 1 {
			return nil, errors.New("one connection only")
		}
		return client, nil
	}
	rep := serve.NewState(nil, 0)
	sy := NewSyncer(rep, opts)
	sy.Start()
	defer sy.Stop()
	waitConverged(t, primary, rep, 15*time.Second)

	if codec := sy.Stats().Codec; codec != wire.CodecBinV1 {
		t.Fatalf("negotiated %q, want %q", codec, wire.CodecBinV1)
	}
	rows := int64(primary.Current().Tickets())
	writes, bytes := conn.writes.Load(), conn.bytes.Load()
	// The hello, the rows in full buffers plus one partial, the marker.
	if limit := bytes/streamBufBytes + 3; writes > limit {
		t.Fatalf("catch-up of %d rows (%d bytes) took %d socket writes, want <= %d", rows, bytes, writes, limit)
	}
}

// TestServerSeversStalledReplica: a replica that stops reading in the
// middle of a catch-up is cut off within WriteTimeout, although the
// stream now writes whole buffers rather than single frames.
func TestServerSeversStalledReplica(t *testing.T) {
	primary := foldedPrimary(t)
	const writeTimeout = 200 * time.Millisecond
	srv, err := NewServer("127.0.0.1:0", primary, ServerOptions{Heartbeat: time.Hour, WriteTimeout: writeTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, server := net.Pipe()
	defer client.Close()
	conn := newCountingConn(server)
	serveConn(srv, conn)

	req, err := encode(&Message{Kind: KindSync, Codecs: []string{wire.CodecBinV1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write(req); err != nil {
		t.Fatal(err)
	}
	// Read the hello and the start of the rows, then stop reading.
	br := bufio.NewReader(client)
	if _, err := br.ReadBytes('\n'); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(br, make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	stalled := time.Now()

	select {
	case <-conn.closed:
	case <-time.After(writeTimeout + 2*time.Second):
		t.Fatalf("stream still open %v after the replica stopped reading (WriteTimeout %v)", time.Since(stalled), writeTimeout)
	}
	if rows := primary.Current().Tickets(); conn.bytes.Load() >= int64(rows)*10 {
		t.Fatalf("stream wrote %d bytes of %d rows before the cut: the catch-up was not cut mid-way", conn.bytes.Load(), rows)
	}
}
