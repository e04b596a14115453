package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"time"

	"github.com/intrust-sim/intrust/internal/core"
)

// tableArtifacts are the paper artifacts `intrust -quick all` renders,
// in its order, each through its public generator.
var tableArtifacts = []struct {
	name   string
	render func() (string, error)
}{
	{"fig1", func() (string, error) {
		f, err := core.Figure1(true)
		if err != nil {
			return "", err
		}
		return f.Render(), nil
	}},
	{"tab2", func() (string, error) { return tableText(core.Table2Architectures()) }},
	{"tab3", func() (string, error) { return tableText(core.Table3CacheSCA(150)) }},
	{"tab4", func() (string, error) { return tableText(core.Table4Transient(6)) }},
	{"tab5", func() (string, error) { return tableText(core.Table5Physical(true)) }},
}

func tableText(t *core.Table, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return t.String(), nil
}

// tab5Cost matches TAB5's sample-cost cells ("400 timings",
// ">= 1024 traces (cap)").
var tab5Cost = regexp.MustCompile(`\|\s*(?:>= )?(\d+) (?:traces|timings)\b`)

// tablesNominal is a typical pass over all five artifacts on a 2-core
// machine.
const tablesNominal = 10500 * time.Millisecond

func runTables(r *runCtx) error {
	// Set-up is the time to the first artifact: TAB2, the cheapest.
	var tab2 string
	setup, err := repeatSetup(5, func() error {
		var err error
		tab2, err = tableArtifacts[1].render()
		return err
	})
	if err != nil {
		return err
	}
	r.E2E["setup_s"] = setup

	// first holds each artifact's first rendering; every later one must
	// match it up to its measured counts (see verdictText).
	first := map[string]string{"tab2": verdictText(tab2)}
	var ivs []interval
	var passes []float64
	perArtifact := map[string][]float64{}
	for n := r.passes(tablesNominal, 3); len(ivs) < n; {
		settle()
		pass := r.tr.open(0, "perfbench", "pass", "")
		a := snapshot()
		var text strings.Builder
		for _, art := range tableArtifacts {
			start := time.Now()
			out, err := art.render()
			d := time.Since(start)
			r.tr.record(pass, "tables", art.name, "", start, d)
			if err != nil {
				r.failOp("%s: %v", art.name, err)
				continue
			}
			perArtifact[art.name] = append(perArtifact[art.name], durMS(d))
			v := verdictText(out)
			if want, ok := first[art.name]; !ok {
				first[art.name] = v
			} else if v != want {
				r.failOp("pass %d: %s rendering differs from its first: %s", len(ivs), art.name, firstDiff(want, v))
			}
			text.WriteString(out)
		}
		b := snapshot()
		r.tr.close(pass)
		iv := between(a, b, len(tableArtifacts))
		ivs = append(ivs, iv)
		passes = append(passes, durMS(iv.wall))
		r.Attempted += int64(len(tableArtifacts))

		if r.Digest == "" {
			sum := sha256.Sum256([]byte(verdictText(text.String())))
			r.Digest = hex.EncodeToString(sum[:])
			costs := tab5Cost.FindAllStringSubmatch(text.String(), -1)
			var total int64
			for _, c := range costs {
				n, _ := strconv.ParseInt(c[1], 10, 64) // the pattern admits digits only
				total += n
			}
			r.Counts = map[string]int64{"tab5_cost_cells": int64(len(costs)), "tab5_samples": total}
			if len(costs) > 0 {
				r.E2E["samples_per_cell"] = float64(total) / float64(len(costs))
			}
		}
	}

	costMetrics(ivs, r.E2E)
	r.batchLatency(passes)
	for name, ms := range perArtifact {
		r.Layers["tables."+name+"_ms"] = median(ms)
	}
	return nil
}

// measuredCount matches the numbers inside a rendering.
var measuredCount = regexp.MustCompile(`[0-9]+`)

// verdictText is a rendering with every number masked: the artifacts'
// layout, labels and verdicts, without their measured counts. The counts
// are not all reproducible: the TEE models draw enclave secrets from
// crypto/rand, so e.g. TAB4's foreshadow row under the L1-flush
// mitigation extracts 0/6 or, about once in forty renderings, 1/6 bytes
// (still "blocked"). TAB5's sample costs, which are reproducible, are
// pinned as exact counts instead.
func verdictText(s string) string { return measuredCount.ReplaceAllString(s, "#") }

// firstDiff quotes the first line where two renderings differ.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d %q, was %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, was %d", len(g), len(w))
}
