package platform

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/bootckpt.sha256 from this run's encodings")

// TestBootCheckpointFormatPinned pins the durable wire format: the
// SHA-256 of every registry configuration's boot checkpoint (CPUs = 2)
// must match testdata/bootckpt.sha256 byte for byte. Store entries
// written by an earlier build stay readable only while this holds, so a
// codec refactor must leave it passing unchanged. Regenerate
// deliberately (with a storeMagic bump) via
// `go test ./internal/platform -run TestBootCheckpointFormatPinned -update`.
func TestBootCheckpointFormatPinned(t *testing.T) {
	var got strings.Builder
	for _, spec := range Registry() {
		spec.CPUs = 2
		_, b := bootAndEncode(t, spec)
		sum := sha256.Sum256(b)
		fmt.Fprintf(&got, "%s %s %d\n", spec.Name, hex.EncodeToString(sum[:]), len(b))
	}
	path := filepath.Join("testdata", "bootckpt.sha256")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("boot checkpoint encodings diverged from the pinned format\n--- want\n%s--- got\n%s", want, got.String())
	}
}
