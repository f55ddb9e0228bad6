package main

import (
	"embed"
	"fmt"
	"strconv"
	"strings"
)

// The committed correctness digests: for every cell its simulated
// outputs and trap count (digests/<grid>.cells), and for every workload
// with a paper artifact the artifact's exact bytes
// (digests/<workload>.table). Host-side counters and wall times are kept
// out, so a digest only moves when the simulation does. Regenerate with
// `go test -run TestDigests -update` in this directory.
//
//go:embed digests
var digestFS embed.FS

type goldenCell struct {
	out   string
	traps int64
}

type digest struct {
	cells map[string]goldenCell
	table string // "" when the workload has no artifact
}

func loadDigest(w suite) (digest, error) {
	d := digest{cells: map[string]goldenCell{}}
	b, err := digestFS.ReadFile("digests/" + w.cellsFile() + ".cells")
	if err != nil {
		return d, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		f := strings.Split(line, "\t")
		if len(f) != 3 {
			return d, fmt.Errorf("digest %s: malformed line %q", w.cellsFile(), line)
		}
		traps, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil {
			return d, fmt.Errorf("digest %s: %w", w.cellsFile(), err)
		}
		d.cells[f[0]] = goldenCell{out: f[1], traps: traps}
	}
	for _, k := range w.cells() {
		if _, ok := d.cells[k]; !ok {
			return d, fmt.Errorf("digest %s: no cell %s", w.cellsFile(), k)
		}
	}
	if t, err := digestFS.ReadFile("digests/" + w.name() + ".table"); err == nil {
		d.table = string(t)
	}
	return d, nil
}

// check compares one pass's outcomes, in canonical cell order, with the
// digest and returns how many cells failed: a fault, a sequential
// fallback, or simulated outputs that differ. A wrong artifact fails the
// whole pass. Traps are compared where the path observed them.
func (d digest) check(w suite, outs []outcome) int {
	bad := 0
	for i, o := range outs {
		g := d.cells[w.cells()[i]]
		if o.failed || o.out != g.out || (o.traps >= 0 && o.traps != g.traps) {
			bad++
		}
	}
	if d.table != "" && w.tables(outs) != d.table {
		bad = len(outs)
	}
	return bad
}

// formatCells renders outcomes in the .cells layout.
func formatCells(w suite, outs []outcome) string {
	var b strings.Builder
	b.WriteString("# cell\tsimulated outputs\ttraps\n")
	for i, o := range outs {
		fmt.Fprintf(&b, "%s\t%s\t%d\n", w.cells()[i], o.out, o.traps)
	}
	return b.String()
}
