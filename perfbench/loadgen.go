package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"ratiorules/internal/core"
)

// newClient returns a client that holds at most one connection, so
// every logical stream of the generator is exactly one TCP connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

func closeClient(cl *http.Client) { cl.Transport.(*http.Transport).CloseIdleConnections() }

// opCount tallies one operation type.
type opCount struct {
	attempted, failed int
}

// streamResult is what one NDJSON stream (ingest or batch) measured.
// Times are nanoseconds since the stream's t0.
type streamResult struct {
	t0       time.Time
	sent     int
	sentAt   []int64 // when each row was written
	ackAt    []int64 // when each row's answer line was read
	late     []int64 // writer lateness: paced rows after their due time, window refills after the slot freed
	errLines int     // per-row error lines
	done     []byte  // the trailing {"done":...} line, ingest only
	firstAt  int64   // first row written
	endAt    int64   // done line or end of body read
}

// stream runs one POST with an NDJSON body written row by row while the
// NDJSON answers are read, full duplex. Rows cycle through lines. With
// rate > 0 the rows go open loop at that many per second; otherwise at
// most window rows are unanswered at once. Paced rows are timed from
// when they were due, windowed rows from when they were written. Row i
// is sent while more(i) holds. onLine, if set,
// sees every answer line that is not an error line or the done line.
func stream(ctx context.Context, cl *http.Client, url, token string, lines [][]byte,
	window int, rate float64, more func(i int) bool,
	onLine func(i int, line []byte)) (*streamResult, error) {
	t0 := time.Now()
	now := func() int64 { return int64(time.Since(t0)) }
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, "POST", url, pr)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}

	res := &streamResult{t0: t0}
	// The reader hands back one slot per answer line. The writer refills
	// the window a quarter at a time, in one flush, so that each write
	// carries many rows and the stream does not settle into a per-row
	// ping-pong whose pace depends on how the two processes happen to be
	// scheduled.
	slots := make(chan int64, window+1)
	refill := max(window/4, 1)
	readerDone := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		bw := bufio.NewWriterSize(pw, 64<<10)
		interval := time.Duration(0)
		if rate > 0 {
			interval = time.Duration(float64(time.Second) / rate)
			runtime.LockOSThread() // for sleepUntil
			defer runtime.UnlockOSThread()
		}
		credit := window
		for i := 0; ; i++ {
			if !more(i) || ctx.Err() != nil {
				break
			}
			var due, t int64
			if rate > 0 {
				due = int64(time.Duration(i) * interval)
				if t = now(); t < due {
					if bw.Flush() != nil {
						return
					}
					sleepUntil(t0.Add(time.Duration(due)))
					t = now()
				}
			} else {
				if credit == 0 {
					if bw.Flush() != nil {
						return
					}
					var freed int64
					for credit < refill {
						select {
						case freed = <-slots:
							credit++
						case <-readerDone:
							_ = pw.CloseWithError(io.ErrUnexpectedEOF)
							return
						}
					}
					res.late = append(res.late, now()-freed)
				}
				credit--
				t = now()
				due = t
			}
			if rate > 0 {
				// A paced row is timed from when it was due, so a stall
				// counts against every row it holds back; how late the
				// generator wrote it is reported as late.
				res.late = append(res.late, t-due)
			}
			if i == 0 {
				res.firstAt = t
			}
			res.sentAt = append(res.sentAt, due)
			if _, err := bw.Write(lines[i%len(lines)]); err != nil {
				return
			}
			res.sent++
		}
		if bw.Flush() == nil {
			_ = pw.Close()
		}
	}()

	var readErr error
	resp, err := cl.Do(req)
	if err == nil {
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			readErr = fmt.Errorf("%s answered %s: %s", url, resp.Status, body)
		} else {
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 64<<10), 4<<20)
			for sc.Scan() {
				line := sc.Bytes()
				t := now()
				if bytes.HasPrefix(line, []byte(`{"done"`)) {
					res.done = append([]byte(nil), line...)
					res.endAt = t
					continue
				}
				i := len(res.ackAt)
				res.ackAt = append(res.ackAt, t)
				if bytes.Contains(line, []byte(`"error"`)) {
					res.errLines++
				} else if onLine != nil {
					onLine(i, line)
				}
				if rate <= 0 {
					slots <- t
				}
			}
			if err := sc.Err(); err != nil && readErr == nil {
				readErr = err
			}
			if res.endAt == 0 {
				res.endAt = now()
			}
		}
		resp.Body.Close()
	} else {
		readErr = err
	}
	close(readerDone)
	_ = pr.CloseWithError(io.ErrClosedPipe)
	<-writerDone
	if readErr != nil {
		return res, readErr
	}
	if len(res.ackAt) != res.sent {
		return res, fmt.Errorf("%s: %d rows sent, %d answer lines", url, res.sent, len(res.ackAt))
	}
	return res, nil
}

// sleepUntil blocks the calling goroutine's OS thread until t; callers
// lock their goroutine to its thread. time.Sleep would wake up to a
// millisecond late, because the runtime waits for timers in epoll with
// millisecond timeouts, and an open loop timed from due times would
// count that as server latency; nanosleep wakes within about 0.1 ms.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep goes round again
	}
}

// sighting is one new model version seen by the freshness watcher.
type sighting struct {
	version, trainedRows int
	at                   time.Time
}

// watchResult is what the freshness watcher measured.
type watchResult struct {
	gets      opCount
	sightings []sighting
	late      []int64
	doneAt    []time.Time // each answered poll
}

// watch polls GET model with If-None-Match on a fixed schedule until
// it sees a version trained on `want` rows (once want is set) or ctx
// ends. Each poll that answers 200 is a new version.
func watch(ctx context.Context, cl *http.Client, url string, every time.Duration, want *atomic.Int64) *watchResult {
	runtime.LockOSThread() // for sleepUntil
	defer runtime.UnlockOSThread()
	res := &watchResult{}
	etag, trained := "", 0
	t0 := time.Now()
	for i := 0; ctx.Err() == nil; i++ {
		if w := want.Load(); w > 0 && int64(trained) == w {
			return res
		}
		due := t0.Add(time.Duration(i) * every)
		if d := time.Until(due); d > 0 {
			sleepUntil(due)
		} else if -d > every {
			// Skip ticks the poll already overran: a watcher that fell
			// behind polls once, not in a burst.
			i += int(-d / every)
			due = t0.Add(time.Duration(i) * every)
		}
		res.late = append(res.late, int64(time.Since(due)))
		req, _ := http.NewRequestWithContext(ctx, "GET", url, nil)
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		res.gets.attempted++
		resp, err := cl.Do(req)
		if err != nil {
			if ctx.Err() == nil {
				res.gets.failed++
			} else {
				res.gets.attempted--
			}
			continue
		}
		seen := time.Now()
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case err != nil:
			res.gets.failed++
		case resp.StatusCode == http.StatusNotModified:
			res.doneAt = append(res.doneAt, seen)
		case resp.StatusCode == http.StatusOK:
			res.doneAt = append(res.doneAt, seen)
			etag = resp.Header.Get("ETag")
			var m struct {
				TrainedRows int `json:"trained_rows"`
			}
			if json.Unmarshal(body, &m) != nil {
				res.gets.failed++
				continue
			}
			trained = m.TrainedRows
			res.sightings = append(res.sightings, sighting{etagVersion(etag), trained, seen})
		default:
			res.gets.failed++
		}
	}
	return res
}

// etagVersion parses the model version out of an ETag like "v12".
func etagVersion(etag string) int {
	v, _ := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(etag, `"v`), `"`))
	return v
}

// pinnedFill is one fill sent with ?version=, checked after the run.
type pinnedFill struct {
	version, row int
	filled       []float64
}

// readSample is one answered read: when it completed and its latency in
// ms.
type readSample struct {
	at  time.Time
	lat float64
}

// readResult is what the open-loop reader measured.
type readResult struct {
	fills, gets     opCount
	reads           []readSample
	fillLat, getLat []float64 // ms, timed as readLoop describes
	late            []int64
	withinSLO       int
	pinned          []pinnedFill
	versions        map[int]*core.Rules // rules of every version a GET returned
}

// readSLO is the latency limit for serve_mixed reads; a read that
// fails, or succeeds later than this after it was due, misses it.
const readSLO = 25 * time.Millisecond

// readLoop sends reads open loop at rate per second until stopAt: four
// in five are single fills over the pool rows and hole patterns (every
// fourth fill pinned to the newest version seen, for checking), the
// fifth a model GET with If-None-Match.
func readLoop(ctx context.Context, cl *http.Client, base, model, token string, in *inputs,
	rate float64, stopAt time.Time) *readResult {
	res := &readResult{versions: map[int]*core.Rules{}}
	interval := time.Duration(float64(time.Second) / rate)
	etag := ""
	latest := 0
	t0 := time.Now()
	do := func(req *http.Request) (int, []byte, http.Header, error) {
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := cl.Do(req)
		if err != nil {
			return 0, nil, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, body, resp.Header, err
	}
	runtime.LockOSThread() // for sleepUntil
	defer runtime.UnlockOSThread()
	var prevDone time.Time
	for i := 0; ctx.Err() == nil; i++ {
		due := t0.Add(time.Duration(i) * interval)
		if due.After(stopAt) {
			break
		}
		sleepUntil(due)
		// A read is timed from when it was due, so a server stall counts
		// against every read it delays. late is the generator's own
		// slack: how long after it could have been sent — when it was due
		// or, if the previous read was still running then, when that one
		// was answered — it was sent.
		ready := due
		if prevDone.After(ready) {
			ready = prevDone
		}
		res.late = append(res.late, int64(time.Since(ready)))
		if i%5 == 4 {
			req, _ := http.NewRequestWithContext(ctx, "GET", base+"/v1/rules/"+model, nil)
			if etag != "" {
				req.Header.Set("If-None-Match", etag)
			}
			res.gets.attempted++
			status, body, hdr, err := do(req)
			prevDone = time.Now()
			lat := prevDone.Sub(due)
			ok := err == nil && (status == http.StatusOK || status == http.StatusNotModified)
			if ok && status == http.StatusOK {
				etag = hdr.Get("ETag")
				v := etagVersion(etag)
				rules, lerr := core.Load(bytes.NewReader(body))
				if lerr != nil || v == 0 {
					ok = false
				} else {
					res.versions[v] = rules
					latest = v
				}
			}
			if !ok {
				res.gets.failed++
				continue
			}
			res.getLat = append(res.getLat, ms(lat))
			res.reads = append(res.reads, readSample{prevDone, ms(lat)})
			if lat <= readSLO {
				res.withinSLO++
			}
			continue
		}
		row := (i * 7919) % len(in.pool)
		url := base + "/v1/rules/" + model + "/fill"
		pin := latest > 0 && i%4 == 0
		if pin {
			url += "?version=" + strconv.Itoa(latest)
		}
		req, _ := http.NewRequestWithContext(ctx, "POST", url, bytes.NewReader(in.fillBodies[row]))
		req.Header.Set("Content-Type", "application/json")
		res.fills.attempted++
		status, body, _, err := do(req)
		prevDone = time.Now()
		lat := prevDone.Sub(due)
		var out struct {
			Filled []float64 `json:"filled"`
		}
		if err != nil || status != http.StatusOK || json.Unmarshal(body, &out) != nil {
			res.fills.failed++
			continue
		}
		res.fillLat = append(res.fillLat, ms(lat))
		res.reads = append(res.reads, readSample{prevDone, ms(lat)})
		if lat <= readSLO {
			res.withinSLO++
		}
		if pin {
			res.pinned = append(res.pinned, pinnedFill{latest, row, out.Filled})
		}
	}
	return res
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
