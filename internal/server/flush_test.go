package server

// The flush rule of the streaming endpoints (linepool.go): buffered
// lines go out before the handler may block. These tests talk raw
// HTTP/1.1 over TCP — net/http's client buffers chunked request bodies,
// so a full-duplex exchange needs a hand-rolled socket — and hold every
// exchange to the connection's 10 s deadline: a line held back past a
// point where the server waits for more input deadlocks the exchange
// and fails the test every time, never merely slowly.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"testing"
	"time"

	"ratiorules/internal/online"
)

// rawStream is one chunked POST whose body stays open while its
// response is read.
type rawStream struct {
	t     *testing.T
	conn  net.Conn
	br    *bufio.Reader
	lines *bufio.Scanner
}

// openStream sends the request head and returns before any body byte.
func openStream(t *testing.T, addr, path string) *rawStream {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	fmt.Fprintf(conn, "POST %s HTTP/1.1\r\n"+
		"Host: contract-test\r\nContent-Type: %s\r\nTransfer-Encoding: chunked\r\n\r\n",
		path, ndjsonContentType)
	return &rawStream{t: t, conn: conn, br: bufio.NewReader(conn)}
}

// send writes one body chunk.
func (s *rawStream) send(chunk string) {
	s.t.Helper()
	if _, err := fmt.Fprintf(s.conn, "%x\r\n%s\r\n", len(chunk), chunk); err != nil {
		s.t.Fatal(err)
	}
}

// end writes the terminal chunk: the request body is done.
func (s *rawStream) end() { fmt.Fprint(s.conn, "0\r\n\r\n") }

// line reads the next response line, reading the response head first.
func (s *rawStream) line() []byte {
	s.t.Helper()
	if s.lines == nil {
		resp, err := http.ReadResponse(s.br, nil)
		if err != nil {
			s.t.Fatalf("reading response head mid-request: %v", err)
		}
		s.t.Cleanup(func() { resp.Body.Close() })
		if resp.StatusCode != http.StatusOK {
			s.t.Fatalf("status %d, want 200", resp.StatusCode)
		}
		s.lines = bufio.NewScanner(resp.Body)
	}
	if !s.lines.Scan() {
		s.t.Fatalf("response line missing: %v", s.lines.Err())
	}
	return s.lines.Bytes()
}

// TestV1ContractIngestStreams is the /ingest twin of
// TestV1ContractBatchStreams: the ack of a row arrives while the
// request body is still open, before the next row is sent.
func TestV1ContractIngestStreams(t *testing.T) {
	ts := onlineTestServer(t, online.Config{RepublishRows: 1 << 30})
	s := openStream(t, ts.Listener.Addr().String(), "/v1/rules/live/ingest")

	s.send("[1, 2]\n")
	var first ingestLine
	if err := json.Unmarshal(s.line(), &first); err != nil {
		t.Fatal(err)
	}
	if first.Index != 0 || first.Count != 1 || first.Error != nil {
		t.Fatalf("first streamed ack: %+v", first)
	}

	// The second row only goes out after the first ack arrived.
	s.send(`{"row": [2, 4]}` + "\n")
	var second ingestLine
	if err := json.Unmarshal(s.line(), &second); err != nil {
		t.Fatal(err)
	}
	if second.Index != 1 || second.Count != 2 || second.Error != nil {
		t.Fatalf("second streamed ack: %+v", second)
	}
	s.end()
	var done ingestLine
	if err := json.Unmarshal(s.line(), &done); err != nil {
		t.Fatal(err)
	}
	if done.Done == nil || done.Done.Rows != 2 || done.Done.Accepted != 2 {
		t.Fatalf("done line: %+v", done)
	}
}

// TestLockStepStreams drives 200 rows through each streaming path the
// way a strictly request-response client does: row i is written only
// after line i-1 was read.
func TestLockStepStreams(t *testing.T) {
	const rows = 200
	ingestRow := func(i int) string { return fmt.Sprintf("[%d, %d]\n", i+1, 2*(i+1)) }
	cases := []struct {
		name   string
		addr   func(t *testing.T) string
		path   string
		row    func(i int) string
		ingest bool
	}{
		{"ingest", func(t *testing.T) string {
			return onlineTestServer(t, online.Config{RepublishRows: 50}).Listener.Addr().String()
		}, "/v1/rules/live/ingest", ingestRow, true},
		{"ingest_clustered", func(t *testing.T) string {
			return newClusterTestServer(t, 2).ts.Listener.Addr().String()
		}, "/v1/rules/live/ingest", ingestRow, true},
		{"batch_fill", func(t *testing.T) string {
			return contractServer(t).Listener.Addr().String()
		}, "/v1/rules/m/batch/fill", func(i int) string {
			return fmt.Sprintf(`{"record":[%d,0],"holes":[1]}`+"\n", i+1)
		}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := openStream(t, c.addr(t), c.path)
			for i := 0; i < rows; i++ {
				s.send(c.row(i))
				var l ingestLine
				if err := json.Unmarshal(s.line(), &l); err != nil {
					t.Fatal(err)
				}
				if l.Index != i || l.Error != nil || (c.ingest && l.Count != i+1) {
					t.Fatalf("line %d: %+v", i, l)
				}
			}
			s.end()
			if c.ingest {
				var done ingestLine
				if err := json.Unmarshal(s.line(), &done); err != nil {
					t.Fatal(err)
				}
				if done.Done == nil || done.Done.Accepted != rows {
					t.Fatalf("done line: %+v", done)
				}
			}
		})
	}
}
