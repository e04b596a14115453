package core

import (
	"context"
	"encoding/json"
	"fmt"

	"github.com/intrust-sim/intrust/internal/diskcache"
	"github.com/intrust-sim/intrust/internal/engine"
)

// Incremental sweeps: a grid run that persists every cell result into a
// tamper-evident diskcache.Store and, on the next run, recomputes only
// the cells whose inputs changed. Soundness rests on the same argument
// as the serve layer's cache — a cell's result is a pure function of
// its canonical CellKey, and CellKey.Experiment() rebuilds the exact
// engine job (seed included) the full sweep would run — so a reused
// result is bit-identical to what recomputation would produce, under
// any subset, superset or reordering of the selection.
//
// Addresses are disjoint from the serve layer's by construction: serve
// stores rendered response bodies under the bare key encoding, resume
// stores engine.Result JSON under "result|v1|"+encoding, and the
// store's authenticated address echo makes crossing them a reject, not
// a confusion. The two can therefore share one -cache-dir.

// resultAddrPrefix namespaces sweep result bodies within a shared
// cache directory; bump the version if the persisted Result layout
// ever changes incompatibly.
const resultAddrPrefix = "result|v1|"

// manifestAddr is the reserved address of the sweep manifest: the map
// from grid coordinate to the result address its last run persisted.
// The manifest is what distinguishes a *changed* cell (same coordinate,
// different measurement inputs) from a *new* one.
const manifestAddr = "manifest|v1|sweep"

// ResultAddr is the disk-cache address of one cell's persisted
// engine.Result.
func ResultAddr(k CellKey) string { return resultAddrPrefix + k.Encode() }

// coordinate names a grid point independent of its measurement knobs:
// the manifest keys on it so a re-run with different samples/confidence
// reports those cells as changed rather than new.
func coordinate(k CellKey) string {
	return escapeKeyField(k.Scenario) + "|" + escapeKeyField(k.Arch) + "|" + escapeKeyField(k.Defense)
}

// ResumeSummary accounts one incremental run: how much of the grid was
// served from disk and why the rest computed.
type ResumeSummary struct {
	// Cells is the enumerated grid size.
	Cells int `json:"cells"`
	// Reused counts cells answered from an authenticated disk entry.
	Reused int `json:"reused"`
	// Computed counts cells that ran the engine (New+Changed+Invalid).
	Computed int `json:"computed"`
	// New counts computed cells whose coordinate the manifest had never
	// seen.
	New int `json:"new"`
	// Changed counts computed cells whose coordinate was persisted
	// under different measurement inputs (samples, confidence, seed).
	Changed int `json:"changed"`
	// Invalid counts computed cells the manifest claimed were persisted
	// but whose entry was missing or failed authentication (torn,
	// tampered, wrong secret) — quarantined and recomputed.
	Invalid int `json:"invalid"`
}

// SweepResume runs the selected grid incrementally against a
// persistent store: every cell already present (authenticated, same
// inputs) is reused; the rest compute on eng and persist. Results come
// back in grid order — exactly the order a full sweep enumerates — so
// SweepTable and SweepDiff render them identically to a cold run.
// Failed cells are returned but never persisted: the next run retries
// them.
func SweepResume(ctx context.Context, store *diskcache.Store, eng *engine.Engine, archs, attacks, defenses []string, opt CellOptions) ([]engine.Result, ResumeSummary, error) {
	keys, err := EnumerateCells(archs, attacks, defenses, opt)
	if err != nil {
		return nil, ResumeSummary{}, err
	}
	prior := loadManifest(store)
	sum := ResumeSummary{Cells: len(keys)}

	results := make([]engine.Result, len(keys))
	loaded := make([]bool, len(keys))
	var coldIdx []int
	var coldExps []engine.Experiment
	for i, k := range keys {
		addr := ResultAddr(k)
		if body, ok, _ := store.GetE(addr); ok {
			var r engine.Result
			if json.Unmarshal(body, &r) == nil {
				results[i], loaded[i] = r, true
				sum.Reused++
				continue
			}
			// An authenticated body that does not decode means the
			// persisted layout drifted without a version bump; recompute
			// rather than trust it.
			sum.Invalid++
		} else if prevAddr, had := prior[coordinate(k)]; !had {
			sum.New++
		} else if prevAddr != addr {
			sum.Changed++
		} else {
			// The manifest promised this exact address; its entry is
			// gone or was rejected (and quarantined) by the store.
			sum.Invalid++
		}
		exp, err := k.Experiment()
		if err != nil {
			// EnumerateCells only emits canonical keys, so this is a
			// programming error worth surfacing, not a per-cell failure.
			return nil, sum, fmt.Errorf("resume: cell %s: %w", k.Encode(), err)
		}
		coldIdx = append(coldIdx, i)
		coldExps = append(coldExps, exp)
	}
	sum.Computed = len(coldIdx)

	var runErr error
	if len(coldExps) > 0 {
		var cold []engine.Result
		cold, runErr = eng.Run(ctx, coldExps)
		for j, r := range cold {
			results[coldIdx[j]] = r
		}
	}

	// Persist the fresh successes and republish the manifest. Failed
	// cells drop out of the manifest entirely, so a later run counts
	// them new and retries.
	manifest := make(map[string]string, len(keys))
	var putErr error
	for i, k := range keys {
		r := &results[i]
		if r.Failed() {
			continue
		}
		addr := ResultAddr(k)
		if !loaded[i] {
			body, err := json.Marshal(r)
			if err == nil {
				err = store.Put(addr, body)
			}
			if err != nil && putErr == nil {
				putErr = fmt.Errorf("resume: persist %s: %w", k.Encode(), err)
			}
		}
		manifest[coordinate(k)] = addr
	}
	// Coordinates outside this selection keep their prior entries: a
	// subset run must not forget the rest of the grid.
	for coord, addr := range prior {
		if _, ok := manifest[coord]; !ok {
			manifest[coord] = addr
		}
	}
	if body, err := json.Marshal(manifest); err == nil {
		if err := store.Put(manifestAddr, body); err != nil && putErr == nil {
			putErr = fmt.Errorf("resume: persist manifest: %w", err)
		}
	}
	if runErr != nil {
		return results, sum, runErr
	}
	return results, sum, putErr
}

// loadManifest reads the prior run's coordinate map; a missing,
// rejected or undecodable manifest degrades to empty — every cold cell
// then counts as new, which only affects the summary's wording, never
// results.
func loadManifest(store *diskcache.Store) map[string]string {
	body, ok, _ := store.GetE(manifestAddr)
	if !ok {
		return map[string]string{}
	}
	var m map[string]string
	if json.Unmarshal(body, &m) != nil || m == nil {
		return map[string]string{}
	}
	return m
}
