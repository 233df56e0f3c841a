package server

// Live ingest endpoints over internal/online. POST
// /v1/rules/{name}/ingest follows the streaming conventions shared
// with batch inference (linepool.go): NDJSON or a JSON array in, one
// NDJSON line out per row, full-duplex with rolling deadlines, status
// 200 committed before the first row. Each input line is a row —
// either a bare array ([1.5, 3.0]) or {"row": [...]} — answered by an
// ack line {"index": i, "count": n} or an error line in its slot; the
// stream ends with a {"done": {...}} summary. Unlike batch inference,
// rows are folded into the stream sequentially (order is state here,
// not just output framing). Re-mining and GE-gated promotion run
// behind the scenes per the manager's triggers; GET
// /v1/rules/{name}/stream shows the live accumulator and gate
// counters, DELETE drops it.

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"

	"ratiorules/internal/admission"
	"ratiorules/internal/cluster"
	"ratiorules/internal/online"
)

// ingestAck is the per-row success line of POST ingest: the
// encoding/json shape appendAck (rowcodec.go) must match.
type ingestAck struct {
	Index int `json:"index"`
	Count int `json:"count"` // stream row total after this row
}

// ingestDone is the final summary line of POST ingest.
type ingestDone struct {
	Rows     int `json:"rows"`     // input lines seen
	Accepted int `json:"accepted"` // rows folded into the stream
	Errors   int `json:"errors"`   // rows answered with an error line
	Count    int `json:"count"`    // stream row total at end of request
}

// ingestDoneLine frames the summary so clients can tell it from acks.
type ingestDoneLine struct {
	Done ingestDone `json:"done"`
}

// queryDecay parses the optional ?decay=D parameter. ok=false means
// the request was already answered with a 400.
func queryDecay(w http.ResponseWriter, req *http.Request) (decay float64, explicit, ok bool) {
	raw := req.URL.Query().Get("decay")
	if raw == "" {
		return 0, false, true
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil || v < 0 || v >= 1 {
		writeErr(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Errorf("invalid decay %q: want a number in [0, 1)", raw))
		return 0, false, false
	}
	return v, true, true
}

// rowSink is where the ingest handler sends a request's decoded rows:
// an online.Stream on a single node, a fan-out session on a
// coordinator. The sink answers each row in its input slot (ack or
// error line); the handler owns everything else.
type rowSink interface {
	start(lw *lineWriter) // the response is committed
	// push folds the index-th row. A non-nil error is an admission
	// refusal, which the handler answers (fail) and then ends the stream.
	push(ctx context.Context, index int, row []float64) error
	fail(index int, err error)
	flush()     // before the handler may block
	live() bool // false once the client is gone or the sink has failed
	end() ingestDone
}

// openSink opens the destination of one ingest request's rows.
func (s *service) openSink(req *http.Request, key string, decay float64, explicit bool) (rowSink, error) {
	if s.cluster != nil {
		sess, err := s.cluster.Ingest(req.Context(), key, decay, explicit)
		if err != nil {
			return nil, err
		}
		return &clusterSink{sess: sess, logger: s.logger, key: key}, nil
	}
	st, err := s.online.Stream(key, decay, explicit)
	if err != nil {
		return nil, err
	}
	return &localSink{adm: s.admission, st: st, tn: tenantFrom(req), key: key}, nil
}

// ingest streams rows into a model's live accumulator, through the
// same loop on a single node and on a coordinator. The first row of a
// new stream fixes its width; a ?decay=D on stream creation sets its
// exponential decay, and later requests naming a different decay
// answer 409 conflict (omit the parameter to join whatever runs).
func (s *service) ingest(w http.ResponseWriter, req *http.Request) {
	name, key, ok := s.modelRef(w, req)
	if !ok {
		return
	}
	if name == "" {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, errors.New("missing model name"))
		return
	}
	decay, explicit, ok := queryDecay(w, req)
	if !ok {
		return
	}
	sink, err := s.openSink(req, key, decay, explicit)
	if err != nil {
		if errors.Is(err, online.ErrDecayConflict) {
			writeErr(w, http.StatusConflict, CodeConflict, err)
			return
		}
		writeErr(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}

	lw := startNDJSON(w)
	defer lw.close()
	sink.start(lw)
	// This loop reads every row, so the sink flushes before each point
	// where it may block: a body read, a row-gate sleep.
	src := batchSource(req, flushBeforeRead{r: req.Body, flush: sink.flush})
	gate := s.admission.RowGate(tenantFrom(req), false)
	gate.OnWait(sink.flush)
	defer gate.Close()

	ctx := req.Context()
	var dec rowDecoder
	rows, shed := 0, false
	for sink.live() {
		raw, rowErr, more := src()
		if !more || ctx.Err() != nil {
			break
		}
		index := rows
		rows++
		lw.roll(index)
		var row []float64
		if rowErr == nil {
			row, rowErr = dec.ingestRow(raw)
		}
		if rowErr != nil {
			sink.fail(index, rowErr)
			continue
		}
		// The row gate (tenant row bucket) and the sink's admission both
		// shed by terminating the stream: the client gets one error line
		// naming the limit and the Retry-After, then the done summary —
		// continuing to read and refuse rows one by one would just burn
		// both sides' CPU.
		if rowErr = gate.Take(ctx); rowErr == nil {
			rowErr = sink.push(ctx, index, row)
		}
		if rowErr != nil {
			sink.fail(index, rowErr)
			shed = true
			break
		}
	}
	done := sink.end()
	done.Rows = rows
	if shed {
		lw.cutOff()
	}
	s.logger.Info("rows ingested",
		"model", key, "rows", done.Rows, "accepted", done.Accepted,
		"errors", done.Errors, "count", done.Count)
	lw.emit(ingestDoneLine{Done: done})
}

// localSink folds rows into an online.Stream on the handler goroutine:
// per row one fold slot (the bounded per-model admission queue), one
// push and one appended ack.
type localSink struct {
	adm  *admission.Controller
	st   *online.Stream
	tn   *admission.Tenant
	key  string
	lw   *lineWriter
	done ingestDone
}

func (k *localSink) start(lw *lineWriter) { k.lw = lw }

func (k *localSink) push(ctx context.Context, index int, row []float64) error {
	release, err := k.adm.IngestSlot(ctx, k.tn, k.key, k.lw.flush)
	if err != nil {
		return err
	}
	count, err := k.st.Push(ctx, row)
	release()
	if err != nil {
		k.fail(index, err)
		return nil
	}
	k.done.Accepted++
	k.done.Count = count
	k.lw.put(appendAck(k.lw.buf(), index, count))
	return nil
}

func (k *localSink) fail(index int, err error) {
	k.done.Errors++
	k.lw.emitErr(index, err)
}

func (k *localSink) flush()          { k.lw.flush() }
func (k *localSink) live() bool      { return !k.lw.failed }
func (k *localSink) end() ingestDone { return k.done }

// clusterSink feeds rows into a fan-out session that hash-shards them
// across the worker nodes. The session reports chunk outcomes in input
// order on Acks, and one drainer goroutine — the only writer of the
// response while the handler feeds the session — turns them back into
// the per-row lines the single-node path would write. It takes no fold
// slot: the session bounds its unacked chunks itself.
type clusterSink struct {
	sess    *cluster.Session
	logger  *slog.Logger
	key     string
	lw      *lineWriter
	done    ingestDone // the drainer's; read after drained closes
	drained chan struct{}
	gone    atomic.Bool // the drainer lost the client
	fatal   bool        // no healthy workers remain
}

func (c *clusterSink) start(lw *lineWriter) {
	c.lw = lw
	c.drained = make(chan struct{})
	go c.drain()
}

// drain writes each ack event's lines. A chunk ack covers a run of
// rows: the run's final count minus its length recovers each row's
// running total. Once the client is gone it keeps receiving — and
// discarding — events until Acks closes: a session whose Acks nobody
// reads stalls its workers and never closes.
func (c *clusterSink) drain() {
	defer close(c.drained)
	index := 0
	for {
		ev, ok := recvFlushing(c.lw, c.sess.Acks())
		if !ok {
			return
		}
		first := index
		index += ev.Rows
		if ev.Err != nil {
			c.done.Errors += ev.Rows
		} else {
			c.done.Accepted += ev.Rows
			c.done.Count = int(ev.Count)
		}
		for i := first; i < index && !c.gone.Load(); i++ {
			var ok bool
			if ev.Err == nil {
				ok = c.lw.put(appendAck(c.lw.buf(), i, c.done.Count-index+i+1))
			} else {
				ok = c.lw.emitErr(i, ev.Err)
			}
			if !ok {
				c.gone.Store(true)
			}
		}
	}
}

func (c *clusterSink) push(_ context.Context, _ int, row []float64) error {
	// A session-fatal error ends the stream; the rows already
	// dispatched surface as error events on Acks.
	c.fatal = c.sess.Push(row) != nil
	return nil
}

// fail reserves the row's slot in the session, so its error line
// follows the acks still in flight for earlier rows.
func (c *clusterSink) fail(_ int, err error) { c.sess.PushError(err) }
func (c *clusterSink) flush()                { _ = c.sess.Flush() }
func (c *clusterSink) live() bool            { return !c.fatal && !c.gone.Load() }

func (c *clusterSink) end() ingestDone {
	if err := c.sess.Close(); err != nil {
		c.logger.Error("cluster ingest session closed with error", "model", c.key, "error", err)
	}
	<-c.drained
	return c.done
}

// streamStatus reports a model's live stream (GET .../stream): row and
// reservoir counts, republish/promotion/rejection tallies, and the GE
// values of the last gate decision.
func (s *service) streamStatus(w http.ResponseWriter, req *http.Request) {
	name, key, ok := s.modelRef(w, req)
	if !ok {
		return
	}
	status, ok := s.online.Status(key)
	if !ok {
		writeErr(w, http.StatusNotFound, CodeNotFound,
			fmt.Errorf("model %q has no live stream", name))
		return
	}
	status.Name = name // the tenant's view, not the scoped store key
	writeJSON(w, http.StatusOK, status)
}

// streamDrop discards a model's live stream and its checkpoint
// (DELETE .../stream). Published model versions are untouched.
func (s *service) streamDrop(w http.ResponseWriter, req *http.Request) {
	name, key, ok := s.modelRef(w, req)
	if !ok {
		return
	}
	if !s.online.Drop(key) {
		writeErr(w, http.StatusNotFound, CodeNotFound,
			fmt.Errorf("model %q has no live stream", name))
		return
	}
	s.admission.DropIngestQueue(key)
	s.logger.Info("stream dropped", "model", key)
	w.WriteHeader(http.StatusNoContent)
}
