package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// gitState reports the checkout's git revision and whether tracked files
// differ from it; both are empty when the tree is not a git checkout.
func gitState() (rev string, dirty any) {
	git := func(args ...string) ([]byte, error) {
		cmd := exec.Command("git", args...)
		// Only this directory's own .git: never a repository above it.
		cmd.Env = append(os.Environ(), "GIT_DIR=.git")
		return cmd.Output()
	}
	out, err := git("rev-parse", "HEAD")
	if err != nil {
		return "", nil
	}
	st, err := git("status", "--porcelain", "--untracked-files=no")
	if err != nil {
		return strings.TrimSpace(string(out)), nil
	}
	return strings.TrimSpace(string(out)), len(strings.TrimSpace(string(st))) > 0
}

// sourceHash digests the program's sources (go.mod, the root package,
// cmd/ and internal/), naming the code under test even where the
// checkout carries no git metadata.
func sourceHash() string {
	h := sha256.New()
	add := func(path string) {
		b, err := os.ReadFile(path)
		if err != nil {
			return
		}
		h.Write([]byte(path + "\x00"))
		h.Write(b)
	}
	add("go.mod")
	roots, _ := filepath.Glob("*.go")
	for _, p := range roots {
		add(p)
	}
	for _, dir := range []string{"cmd", "internal"} {
		_ = filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
			if err == nil && d.Type().IsRegular() {
				add(p)
			}
			return nil
		})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// printConditions stamps the run with what it ran on, so results from
// different set-ups are never compared as if they matched.
func printConditions(flags []string, sp spec, seed int64,
	window time.Duration, traced, awake bool, ran *e2e) {
	rev, dirty := gitState()
	if rev == "" {
		for series := range ran.after {
			if strings.HasPrefix(series, "rr_build_info{") {
				if _, after, ok := strings.Cut(series, `revision="`); ok {
					rev, _, _ = strings.Cut(after, `"`)
				}
			}
		}
	}
	cond := map[string]any{
		"workload":      sp.name,
		"seed":          seed,
		"seconds":       window.Seconds(),
		"trace":         traced,
		"nproc":         runtime.NumCPU(),
		"go_version":    runtime.Version(),
		"git_revision":  rev,
		"git_dirty":     dirty,
		"source_sha256": sourceHash(),
		"rrserve_flags": flags,
		"width":         sp.m,
		"steal_frac":    ran.stealFrac,
		"host_wake_us":  ran.wakeUS,
		"host_speed":    ran.hostSpeed,
		"keep_awake":    awake,
	}
	b, _ := json.Marshal(cond)
	fmt.Printf("conditions %s\n", b)
}

// printResult prints every metric the run measured with its unit and
// sample count, the per-operation failure accounting, then the result
// object whose metrics are exactly `names`.
func printResult(res *result, names []metric) error {
	fmt.Println("report (metric value unit samples):")
	for _, list := range [][]metric{reportMetrics, perLayerMetrics} {
		for _, m := range list {
			if v, ok := res.values[m.name]; ok {
				fmt.Printf("  %-32s %14.6g %-6s n=%d\n", m.name, v, m.unit, res.samples[m.name])
			}
		}
	}
	kinds := make([]string, 0, len(res.ops))
	for k := range res.ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		c := res.ops[k]
		fmt.Printf("ops %-12s attempted=%d succeeded=%d failed=%d\n", k, c.attempted, c.attempted-c.failed, c.failed)
	}
	for _, err := range res.checks {
		fmt.Printf("CHECK FAILED: %v\n", err)
	}
	metrics := map[string]any{}
	for _, m := range names {
		v, ok := res.values[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	attempted, failed := res.totals()
	out, err := json.Marshal(map[string]any{
		"correct":   len(res.checks) == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
