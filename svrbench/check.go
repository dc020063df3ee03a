package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

const (
	// referencePath holds per-seed observations recorded at Workers=1 on
	// the tree that defined the benchmark (see --record-reference).
	referencePath = "svrbench/reference.json"
	// goldenPath is the repository's byte-exact seed-42 reproduction.
	goldenPath = "artifacts_seed42.txt"
	// observedDir keeps each run's observation for later runs of the same
	// binary, workload and seed, so determinism is checked across runs at
	// seeds with no stored reference too.
	observedDir = ".bench_build/observed"
)

// goldenIDs are the artifacts whose section of artifacts_seed42.txt was
// rendered with the options the benchmark uses (the golden file was made
// with -repeats 1, which these experiments ignore).
var goldenIDs = map[string]bool{"fig12": true, "fig13": true, "fig13tcp": true}

// source is one expectation an iteration's observation must agree with.
// Empty fields pin nothing.
type source struct {
	name string
	obs  observation
}

// checker compares every iteration with every source it has and counts
// failed artifacts.
type checker struct {
	ids       []string
	sources   []source
	attempted int
	failed    int
	problems  []string
}

func newChecker(w workload, seed int64, exeDigest string) (*checker, error) {
	c := &checker{}
	for _, a := range w.artifacts {
		c.ids = append(c.ids, a.id)
	}
	refs, err := loadReference()
	if err != nil {
		return nil, err
	}
	if o, ok := refs[w.name][strconv.FormatInt(seed, 10)]; ok {
		c.sources = append(c.sources, source{"stored reference", o})
	}
	if seed == 42 {
		golden, err := goldenDigests()
		if err != nil {
			return nil, err
		}
		o := observation{Digests: map[string]string{}}
		for _, id := range c.ids {
			if goldenIDs[id] {
				o.Digests[id] = golden[id]
			}
		}
		if len(o.Digests) > 0 {
			c.sources = append(c.sources, source{goldenPath, o})
		}
	}
	if o, ok := loadObserved(w.name, seed, exeDigest); ok {
		c.sources = append(c.sources, source{"earlier run", o})
	}
	return c, nil
}

// check counts one iteration. rec is nil when the iteration process failed,
// which fails every artifact of the iteration.
func (c *checker) check(label string, rec *record) {
	c.attempted += len(c.ids)
	if rec == nil {
		c.failed += len(c.ids)
		c.problems = append(c.problems, label+": iteration process failed")
		return
	}
	bad := map[string]bool{}
	for id, msg := range rec.Errors {
		bad[id] = true
		c.problems = append(c.problems, fmt.Sprintf("%s: %s: %s", label, id, msg))
	}
	for _, s := range c.sources {
		if s.obs.Metrics != "" && s.obs.Metrics != rec.Obs.Metrics {
			c.problems = append(c.problems, fmt.Sprintf("%s: metrics snapshot differs from %s", label, s.name))
			for _, id := range c.ids {
				bad[id] = true
			}
		}
		for id, want := range s.obs.Digests {
			if got := rec.Obs.Digests[id]; got != want && !bad[id] {
				bad[id] = true
				c.problems = append(c.problems, fmt.Sprintf("%s: %s differs from %s", label, id, s.name))
			}
		}
	}
	c.failed += len(bad)
	if _, ok := c.find("first iteration"); len(bad) == 0 && !ok {
		c.sources = append(c.sources, source{"first iteration", rec.Obs})
	}
}

func (c *checker) find(name string) (observation, bool) {
	for _, s := range c.sources {
		if s.name == name {
			return s.obs, true
		}
	}
	return observation{}, false
}

func loadReference() (map[string]map[string]observation, error) {
	b, err := os.ReadFile(referencePath)
	if err != nil {
		return nil, fmt.Errorf("read reference: %w", err)
	}
	refs := map[string]map[string]observation{}
	if err := json.Unmarshal(b, &refs); err != nil {
		return nil, fmt.Errorf("parse %s: %w", referencePath, err)
	}
	return refs, nil
}

// goldenDigests returns the SHA-256 of each artifact section of the golden
// file. A section is the artifact's Render() output; the CLI follows it with
// one blank line before the next "==== id (...) ====" header.
func goldenDigests() (map[string]string, error) {
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, fmt.Errorf("read golden artifacts: %w", err)
	}
	out := map[string]string{}
	var id string
	var body strings.Builder
	flush := func() {
		if id != "" {
			out[id] = digest(strings.TrimSuffix(body.String(), "\n"))
		}
		body.Reset()
	}
	for _, line := range strings.SplitAfter(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "==== "); ok {
			flush()
			id, _, _ = strings.Cut(rest, " ")
			continue
		}
		body.WriteString(line)
	}
	flush()
	return out, nil
}

func observedPath(workload string, seed int64, exeDigest string) string {
	return filepath.Join(observedDir, fmt.Sprintf("%s-seed%d-%s.json", workload, seed, exeDigest[:16]))
}

func loadObserved(workload string, seed int64, exeDigest string) (observation, bool) {
	var o observation
	b, err := os.ReadFile(observedPath(workload, seed, exeDigest))
	if err != nil {
		return o, false
	}
	return o, json.Unmarshal(b, &o) == nil
}

// storeObserved records a clean run's observation for later runs; it
// writes a temporary file and renames it so a reader never sees half.
func storeObserved(workload string, seed int64, exeDigest string, o observation) error {
	path := observedPath(workload, seed, exeDigest)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(o)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path+".tmp", b, 0o644); err != nil {
		return err
	}
	return os.Rename(path+".tmp", path)
}

// fileDigest identifies the benchmark binary, so observations made by
// another build of the program are never compared.
func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// writeReference merges observations into the stored reference file.
func writeReference(add map[string]map[string]observation) error {
	refs, err := loadReference()
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	if refs == nil {
		refs = map[string]map[string]observation{}
	}
	for w, seeds := range add {
		if refs[w] == nil {
			refs[w] = map[string]observation{}
		}
		for s, o := range seeds {
			refs[w][s] = o
		}
	}
	b, err := json.MarshalIndent(refs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(referencePath, append(b, '\n'), 0o644)
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
