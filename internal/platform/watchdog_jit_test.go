package platform

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/nevesim/neve/internal/fault"
	"github.com/nevesim/neve/internal/trace"
)

// guardedRun runs the watchdog parity workload — guest work, hypercalls
// and device reads — and returns the watchdog's trap count after every
// guest operation (the boundaries of the outermost trap sequences, which
// replayed super-ops start and end on) with the run's error.
func guardedRun(p Platform, iters int) ([]uint64, error) {
	var marks []uint64
	mark := func() { marks = append(marks, p.Watchdog().Traps()) }
	err := p.RunGuestErr(0, func(g Guest) {
		for i := 0; i < iters; i++ {
			g.Work(50)
			g.Hypercall()
			mark()
			if i%3 == 0 {
				g.DeviceRead(0)
				mark()
			}
		}
	})
	return marks, err
}

// guardedVerdict renders everything a guarded run leaves observable: the
// SimError (kind, counters, location, message, recent traps) or its
// absence, each core's cycles and per-level attribution, the trace
// counters, the recent-event ring and the watchdog's counts.
func guardedVerdict(p Platform, err error) string {
	var b strings.Builder
	if err != nil {
		var se *fault.SimError
		if !errors.As(err, &se) {
			return "untyped error: " + err.Error()
		}
		fmt.Fprintf(&b, "%s\n", se.Diagnostic())
	} else {
		b.WriteString("no trip\n")
	}
	n := p.Spec().CPUs
	if n == 0 {
		n = 2
	}
	for i := range n {
		fmt.Fprintf(&b, "cpu%d cycles=%d levels=%v\n", i, p.CPUCycles(i), p.LevelCycles(i))
	}
	tr := p.Trace()
	fmt.Fprintf(&b, "traps=%d\n", tr.Total())
	details := tr.Details()
	keys := make([]string, 0, len(details))
	for k := range details {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%d\n", k, details[k])
	}
	for _, ev := range tr.Recent() {
		fmt.Fprintf(&b, "recent %+v\n", ev)
	}
	fmt.Fprintf(&b, "watchdog %d traps %d steps\n", p.Watchdog().Traps(), p.Watchdog().Steps())
	return b.String()
}

// parityBudgets returns the trap budgets that trip the run: around every
// boundary (a trip on the trap before it, on it, and on the first two
// traps of the next sequence, whose first is charged before dispatch) and
// at points across one sequence — every one when the sequence is short,
// evenly spaced otherwise — so trips land inside replayed ops of every
// nesting depth and at their edges.
func parityBudgets(marks []uint64) []uint64 {
	total := marks[len(marks)-1]
	var bs []uint64
	for _, c := range marks {
		bs = append(bs, c-1, c, c+1, c+2)
	}
	lo, hi := marks[len(marks)-3], marks[len(marks)-2]
	step := max(1, (hi-lo)/24)
	for b := lo; b < hi; b += step {
		bs = append(bs, b)
	}
	slices.Sort(bs)
	bs = slices.Compact(bs)
	return slices.DeleteFunc(bs, func(b uint64) bool { return b == 0 || b >= total })
}

// TestWatchdogVerdictJITParity is the watchdog's trace-JIT gate: the
// engine stays on under trap and step budgets, so replay must charge them
// exactly as the interpreter would. Warm the super-ops first (as on a
// pooled platform), then sweep trap budgets so that trips land inside and
// at the edges of replayed ops, and step budgets up to the run's end.
// Every run — the SimError with its counters, location and recent traps,
// the trace counters, the ring — must equal the interpreted run under the
// same budget. A budget the run uses up exactly must not change which code
// runs either: it dispatches like an unguarded warm run.
func TestWatchdogVerdictJITParity(t *testing.T) {
	for _, tc := range []struct {
		name  string
		iters int
		steps bool
	}{
		{"v8.3", 6, true},
		{"v8.3-vhe", 6, false},
		{"neve", 6, false},
		{"recursive-v8.3", 2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := MustLookup(tc.name)
			spec.MaxTraps = 1 << 40
			ref := spec
			ref.JITOff = true
			r := MustBuild(ref)
			marks, err := guardedRun(r, tc.iters)
			if err != nil {
				t.Fatalf("unguarded reference run failed: %v", err)
			}
			traps, steps := r.Watchdog().Traps(), r.Watchdog().Steps()

			// One warm JIT-on platform, restored before every budgeted
			// run; the interpreted twin is built fresh each time.
			p := MustBuild(spec)
			wd := p.Watchdog()
			cp := p.Snapshot()
			rerun := func(maxTraps, maxSteps uint64) error {
				p.Restore(cp)
				wd.Reset()
				wd.MaxTraps, wd.MaxSteps = maxTraps, maxSteps
				_, err := guardedRun(p, tc.iters)
				return err
			}
			// Warm until a pass dispatches exactly like the one before.
			var warm trace.JITStats
			for pass := 0; ; pass++ {
				js := p.JITStats()
				if err := rerun(0, 0); err != nil {
					t.Fatalf("warm-up run failed: %v", err)
				}
				if js = p.JITStats().Sub(js); js == warm {
					break
				}
				if pass == 10 {
					t.Fatalf("dispatch did not settle in %d warm passes: %+v", pass, js)
				}
				warm = js
			}

			var hits uint64
			check := func(maxTraps, maxSteps uint64, trips bool) {
				t.Helper()
				js := p.JITStats()
				err := rerun(maxTraps, maxSteps)
				js = p.JITStats().Sub(js)
				hits += js.Hits
				on := guardedVerdict(p, err)
				twinSpec := ref
				twinSpec.MaxTraps, twinSpec.MaxSteps = maxTraps, maxSteps
				twin := MustBuild(twinSpec)
				_, terr := guardedRun(twin, tc.iters)
				if off := guardedVerdict(twin, terr); on != off {
					t.Fatalf("budget %d traps / %d steps: JIT on differs from off\n--- on\n%s--- off\n%s",
						maxTraps, maxSteps, on, off)
				}
				if (err != nil) != trips {
					t.Fatalf("budget %d traps / %d steps: tripped = %v, want %v", maxTraps, maxSteps, err != nil, trips)
				}
				if !trips && js != warm {
					t.Fatalf("budget %d traps / %d steps holds but changed dispatch: %+v, unguarded %+v",
						maxTraps, maxSteps, js, warm)
				}
			}
			// Exact fits first, while the engine is in its warm state.
			check(traps, 0, false)
			if tc.steps {
				check(0, steps, false)
			}
			for _, b := range parityBudgets(marks) {
				check(b, 0, true)
			}
			if tc.steps {
				check(0, steps/2, true)
				check(0, steps-1, true)
			}
			if hits == 0 {
				t.Fatal("no super-op replayed under any budget")
			}
		})
	}
}
