package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/intrust-sim/intrust/internal/defense"
	"github.com/intrust-sim/intrust/internal/engine"
	"github.com/intrust-sim/intrust/internal/scenario"
)

// TestPaperTablesAreGridCells pins the one-measurement-path contract:
// every TAB3/TAB4 row reports exactly the verdict and the measurement its
// named grid cell computes through RunCell, the serve layer's cell entry
// point, byte for byte. (TAB4's Foreshadow rows count bytes of a quoting
// key derived from the cell seed, so they replay too.)
func TestPaperTablesAreGridCells(t *testing.T) {
	const samples = 64
	for _, tc := range []struct {
		name   string
		render func(int) (*Table, error)
		rows   []gridRow
	}{
		{"TAB3", Table3CacheSCA, table3Rows},
		{"TAB4", Table4Transient, table4Rows},
	} {
		tab, err := tc.render(samples)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(tab.Rows) != len(tc.rows) {
			t.Fatalf("%s has %d rows, want %d", tc.name, len(tab.Rows), len(tc.rows))
		}
		for i, row := range tab.Rows {
			cell := strings.Split(row[4], "/")
			if len(cell) != 3 {
				t.Fatalf("%s row %d: grid cell %q is not scenario/arch/defense", tc.name, i, row[4])
			}
			k, err := ResolveCell(cell[0], cell[1], cell[2], CellOptions{Samples: samples})
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunCell(context.Background(), k)
			if err != nil || res.Failed() {
				t.Fatalf("%s: RunCell(%s) = %v %s", tc.name, row[4], err, res.Err)
			}
			if row[3] != res.Verdict {
				t.Errorf("%s row %q/%q verdict %q, grid cell %s says %q", tc.name, row[0], row[1], row[3], row[4], res.Verdict)
			}
			if row[2] != res.Rows[0][2] {
				t.Errorf("%s row %q/%q measured %q, grid cell %s measured %q", tc.name, row[0], row[1], row[2], row[4], res.Rows[0][2])
			}
		}
	}
}

// TestRunTableFailsOnFailedJob checks a failed or panicking job fails the
// whole artifact instead of rendering a table with its row missing.
func TestRunTableFailsOnFailedJob(t *testing.T) {
	ok := func(*engine.Ctx) (engine.Outcome, error) {
		return engine.Outcome{Rows: [][]string{{"ok"}}}, nil
	}
	for name, bad := range map[string]func(*engine.Ctx) (engine.Outcome, error){
		"error": func(*engine.Ctx) (engine.Outcome, error) { return engine.Outcome{}, errors.New("probe failed") },
		"panic": func(*engine.Ctx) (engine.Outcome, error) { panic("probe panicked") },
	} {
		tab, err := runTable("T", []string{"c"}, []engine.Experiment{
			{Name: "good", Run: ok}, {Name: "bad", Run: bad},
		})
		if err == nil || !strings.Contains(err.Error(), "bad") {
			t.Errorf("%s: runTable error = %v, want the failed job named", name, err)
		}
		if tab != nil {
			t.Errorf("%s: runTable rendered %d rows from a failed run", name, len(tab.Rows))
		}
	}
}

// TestBlocksClaimsHoldInGoldenGrid checks every defense's declared
// coverage against the checked-in golden grid: a scenario a defense
// claims to block is mitigated or n/a under it, on every architecture,
// never broken. It reads the file and computes nothing, so it runs in
// every pass, including under the race detector where TestGoldenGrid is
// skipped.
func TestBlocksClaimsHoldInGoldenGrid(t *testing.T) {
	data, err := os.ReadFile(goldenPath())
	if err != nil {
		t.Fatal(err)
	}
	class := map[[3]string]string{} // scenario, arch, defense
	for _, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		f := strings.Split(line, "\t")
		if len(f) != 4 {
			t.Fatalf("malformed golden line %q", line)
		}
		class[[3]string{f[0], f[1], f[2]}] = f[3]
	}
	counts := map[string]int{}
	for _, d := range defense.Default.All() {
		label := strings.ToLower(d.Name())
		for _, sc := range d.BlocksList {
			for _, arch := range AllArchitectures {
				got, ok := class[[3]string{sc, arch, label}]
				if !ok {
					t.Errorf("golden grid has no cell %s/%s/%s", sc, arch, label)
					continue
				}
				counts[got]++
				if got != scenario.ClassMitigated && got != scenario.ClassNA {
					t.Errorf("%s claims to block %s, but %s/%s/%s is %s", d.Name(), sc, sc, arch, label, got)
				}
			}
		}
	}
	if counts[scenario.ClassMitigated] == 0 {
		t.Error("no Blocks claim is mitigated anywhere in the golden grid")
	}
	t.Logf("Blocks claims in the golden grid: %d mitigated, %d n/a", counts[scenario.ClassMitigated], counts[scenario.ClassNA])
}

// TestPhysicalRendersPinned pins the quick TAB5 and FIG1 renders byte
// for byte against checked-in files. Both run their CPA rows on the
// arena kernels, whose statistics equal the float64 reference bit for
// bit, so any change to the kernels, the trace stream or the row
// assembly shows up here. The CLI's "[... regenerated in ...]" timing
// line is printed outside the render and is not part of the pin.
// Regenerate with -update only after intentionally changing what a row
// reports.
func TestPhysicalRendersPinned(t *testing.T) {
	for _, tc := range []struct {
		file   string
		render func() (string, error)
	}{
		{"tab5_quick.txt", func() (string, error) {
			tab, err := Table5Physical(true)
			if err != nil {
				return "", err
			}
			return tab.String(), nil
		}},
		{"fig1_quick.txt", func() (string, error) {
			f, err := Figure1(true)
			if err != nil {
				return "", err
			}
			return f.Render(), nil
		}},
	} {
		got, err := tc.render()
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		path := filepath.Join("testdata", tc.file)
		if *updateGolden {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("render pin missing (run `go test ./internal/core -run TestPhysicalRendersPinned -update`): %v", err)
		}
		if got != string(want) {
			t.Errorf("%s render changed:\n--- pinned\n%s--- now\n%s", tc.file, want, got)
		}
	}
}

// TestDisclosureCost pins the TAB5 CPA cost cell: a disclosed key
// reports its budget, an undisclosed one reports the cap it hit.
func TestDisclosureCost(t *testing.T) {
	for _, tc := range []struct {
		n    int
		ok   bool
		want string
	}{
		{64, true, "64 traces"},
		{1024, true, "1024 traces"},
		{1024, false, ">= 1024 traces (cap)"},
		{100, false, ">= 100 traces (cap)"},
	} {
		if got := disclosureCost(tc.n, tc.ok); got != tc.want {
			t.Errorf("disclosureCost(%d, %v) = %q, want %q", tc.n, tc.ok, got, tc.want)
		}
	}
}
