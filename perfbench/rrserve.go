package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTick is the /proc CPU time unit (USER_HZ, 100 on Linux).
const clockTick = 10 * time.Millisecond

// proc is one running rrserve.
type proc struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:PORT
	pid  int

	mu     sync.Mutex
	tail   []string      // last lines of stderr, for failure reports
	logEOF chan struct{} // closed when stderr is drained
}

// startRRServe execs rrserve and returns once it logged its listen
// address. The caller owns the process and must call stop.
func startRRServe(bin string, args []string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting rrserve: %w", err)
	}
	p := &proc{cmd: cmd, pid: cmd.Process.Pid, logEOF: make(chan struct{})}
	addrCh := make(chan string, 1)
	go p.drain(stderr, addrCh)
	select {
	case addr := <-addrCh:
		p.base = "http://" + addr
		return p, nil
	case <-p.logEOF:
	case <-time.After(20 * time.Second):
	}
	_ = p.stop()
	return nil, fmt.Errorf("rrserve did not report a listen address; log tail:\n%s", p.logTail())
}

// drain reads rrserve's log until EOF, picking the bound address out of
// the "rrserve listening" line and keeping a short tail.
func (p *proc) drain(r io.Reader, addrCh chan<- string) {
	defer close(p.logEOF)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	sent := false
	for sc.Scan() {
		line := sc.Text()
		if !sent && strings.Contains(line, "rrserve listening") {
			if i := strings.Index(line, "addr="); i >= 0 {
				addrCh <- strings.Fields(line[i+len("addr="):])[0]
				sent = true
			}
		}
		p.mu.Lock()
		p.tail = append(p.tail, line)
		if len(p.tail) > 40 {
			p.tail = p.tail[len(p.tail)-40:]
		}
		p.mu.Unlock()
	}
	_, _ = io.Copy(io.Discard, r)
}

func (p *proc) logTail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, "\n")
}

// stop sends SIGTERM, waits for the graceful drain and falls back to
// SIGKILL; it returns once the process and its log reader have ended.
func (p *proc) stop() error {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		err = <-done
		if err == nil {
			err = errors.New("rrserve ignored SIGTERM")
		}
	}
	<-p.logEOF
	return err
}

// waitReady polls /readyz until it answers 200.
func (p *proc) waitReady(ctx context.Context, cl *http.Client) error {
	for {
		req, _ := http.NewRequestWithContext(ctx, "GET", p.base+"/readyz", nil)
		resp, err := cl.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("rrserve not ready: %w (last error %v)", ctx.Err(), err)
		case <-time.After(time.Millisecond):
		}
	}
}

// cpu returns the process's user+system CPU time from /proc.
func (p *proc) cpu() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * clockTick, nil
}

// machineCPU returns the machine's total and stolen CPU time from the
// first line of /proc/stat, in clock ticks. Stolen time is time a
// virtual CPU was runnable but the host ran something else.
func machineCPU() (total, steal int64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("unexpected /proc/stat")
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal, nil
}

// statusMB returns a /proc status memory field (VmRSS:, VmHWM:) in MiB.
func (p *proc) statusMB(field string) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// scrape is one /metrics exposition: series text -> value.
type scrape map[string]float64

// scrapeMetrics reads the Prometheus text exposition.
func scrapeMetrics(ctx context.Context, cl *http.Client, base string) (scrape, error) {
	req, _ := http.NewRequestWithContext(ctx, "GET", base+"/metrics", nil)
	resp, err := cl.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics answered %s", resp.Status)
	}
	out := scrape{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series of a family whose labels contain all of the
// given label="value" fragments.
func (s scrape) sum(family string, labels ...string) float64 {
	var total float64
	for series, v := range s {
		name, rest, _ := strings.Cut(series, "{")
		if name != family {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// delta is after.sum minus before.sum for one family and label filter.
func delta(before, after scrape, family string, labels ...string) float64 {
	return after.sum(family, labels...) - before.sum(family, labels...)
}
