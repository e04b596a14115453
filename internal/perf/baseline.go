package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// FileSchema identifies the multi-environment baseline container. The
// original BENCH_sweep.json (schema 1) was a single Report, which tied
// the checked-in baseline to one machine shape: a multi-core refresh
// overwrote the 1-CPU numbers and disarmed the gate everywhere else.
// Schema 2 keeps one Report per environment side by side, so the gate
// arms against whichever entry matches the machine it runs on.
const FileSchema = 2

// File is the BENCH_sweep.json artifact: one throughput Report per
// measured environment (Go release × GOMAXPROCS × worker-pool size).
type File struct {
	Schema       int       `json:"schema"`
	Environments []*Report `json:"environments"`
}

// EnvironmentString names a report's environment the way bench messages
// print it.
func (r *Report) EnvironmentString() string {
	return fmt.Sprintf("%s numcpu=%d gomaxprocs=%d parallel=%d", r.GoVersion, r.NumCPU, r.GOMAXPROCS, r.Parallel)
}

// ReadBaseline loads a schema-2 multi-environment baseline file.
func ReadBaseline(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("perf: %s: %w", path, err)
	}
	if f.Schema != FileSchema {
		return nil, fmt.Errorf("perf: %s: file schema %d, want %d (refresh the baseline)", path, f.Schema, FileSchema)
	}
	return &f, nil
}

// Match returns the baseline entry measured in rep's environment, or nil
// when no entry matches — the per-environment arming decision the bench
// gate makes.
func (f *File) Match(rep *Report) *Report {
	for _, b := range f.Environments {
		if SameEnvironment(b, rep) {
			return b
		}
	}
	return nil
}

// Upsert replaces the entry matching rep's environment, or appends one,
// keeping entries deterministically ordered so refreshes diff cleanly.
func (f *File) Upsert(rep *Report) {
	f.Schema = FileSchema
	replaced := false
	for i, b := range f.Environments {
		if SameEnvironment(b, rep) {
			f.Environments[i] = rep
			replaced = true
			break
		}
	}
	if !replaced {
		f.Environments = append(f.Environments, rep)
	}
	sort.Slice(f.Environments, func(i, j int) bool {
		a, b := f.Environments[i], f.Environments[j]
		if a.GoVersion != b.GoVersion {
			return a.GoVersion < b.GoVersion
		}
		if a.GOMAXPROCS != b.GOMAXPROCS {
			return a.GOMAXPROCS < b.GOMAXPROCS
		}
		return a.Parallel < b.Parallel
	})
}

// WriteJSON renders the container as indented JSON.
func (f *File) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}
