package platform

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
)

// CheckpointStore is a durable, content-addressed cache of boot
// checkpoints shared between processes. Entries are keyed by the hash of
// the spec's canonical axes — the same identity the in-process warm-boot
// pool uses — so any worker that builds the same configuration finds the
// same entry, across restarts.
//
// The store is crash-safe and corruption-tolerant by construction:
//
//   - Writes go to a temp file in the same directory and are renamed into
//     place, so readers never observe a half-written entry under the
//     final name.
//   - Every entry carries a header with a magic string, the payload
//     length, and a SHA-256 of the payload. Load verifies all three; a
//     truncated or bit-flipped entry is counted in Corrupt, removed, and
//     reported as a miss — the caller falls back to a cold boot and
//     rewrites the entry. Corruption can degrade performance, never
//     correctness.
//
// All methods are safe for concurrent use from multiple goroutines and
// multiple processes (the filesystem rename provides the cross-process
// atomicity).
type CheckpointStore struct {
	dir string

	hits    atomic.Uint64
	misses  atomic.Uint64
	corrupt atomic.Uint64
	saves   atomic.Uint64
}

// storeMagic begins every entry; bump the trailing digit on any codec
// layout change so stale entries from older builds read as corrupt
// (= cold boot) instead of decoding garbage.
const storeMagic = "NEVECKP2"

// headerLen is magic + payload length (8) + payload SHA-256 (32).
const headerLen = len(storeMagic) + 8 + sha256.Size

// OpenCheckpointStore opens (creating if needed) a store rooted at dir.
func OpenCheckpointStore(dir string) (*CheckpointStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint store: %w", err)
	}
	return &CheckpointStore{dir: dir}, nil
}

// Dir returns the store's root directory.
func (st *CheckpointStore) Dir() string { return st.dir }

// Key returns the store key for a spec: the hex SHA-256 of its canonical
// axes. Run-harness attachments (budgets, fault plans) are not axes, so
// every harness that boots the same configuration shares one entry.
func (st *CheckpointStore) Key(spec Spec) string {
	sum := sha256.Sum256([]byte(spec.Axes()))
	return hex.EncodeToString(sum[:])
}

func (st *CheckpointStore) path(key string) string {
	return filepath.Join(st.dir, key+".ckpt")
}

// Load fetches the payload stored under spec's key. The second return is
// false on a miss — including any form of corruption, which is counted
// separately and the bad entry removed.
func (st *CheckpointStore) Load(spec Spec) ([]byte, bool) {
	if st == nil {
		return nil, false
	}
	path := st.path(st.Key(spec))
	b, err := os.ReadFile(path)
	if err != nil {
		st.misses.Add(1)
		return nil, false
	}
	payload, ok := verifyEntry(b)
	if !ok {
		st.corrupt.Add(1)
		st.misses.Add(1)
		os.Remove(path)
		return nil, false
	}
	st.hits.Add(1)
	return payload, true
}

// verifyEntry checks an entry's header and integrity hash, returning the
// payload. It must never panic on arbitrary bytes.
func verifyEntry(b []byte) ([]byte, bool) {
	if len(b) < headerLen {
		return nil, false
	}
	if string(b[:len(storeMagic)]) != storeMagic {
		return nil, false
	}
	n := binary.LittleEndian.Uint64(b[len(storeMagic):])
	var want [sha256.Size]byte
	copy(want[:], b[len(storeMagic)+8:headerLen])
	payload := b[headerLen:]
	if uint64(len(payload)) != n {
		return nil, false
	}
	if sha256.Sum256(payload) != want {
		return nil, false
	}
	return payload, true
}

// Save stores payload under spec's key, atomically: concurrent savers of
// the same key race benignly (both write identical content-addressed
// bytes) and a crash mid-write leaves at worst an orphaned temp file.
func (st *CheckpointStore) Save(spec Spec, payload []byte) error {
	if st == nil {
		return nil
	}
	b := make([]byte, 0, headerLen+len(payload))
	b = append(b, storeMagic...)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(payload)))
	sum := sha256.Sum256(payload)
	b = append(b, sum[:]...)
	b = append(b, payload...)
	f, err := os.CreateTemp(st.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("checkpoint store: %w", err)
	}
	tmp := f.Name()
	_, werr := f.Write(b)
	cerr := f.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp, st.path(st.Key(spec)))
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint store: %w", werr)
	}
	st.saves.Add(1)
	return nil
}

// StoreStats is a point-in-time snapshot of the store's counters.
type StoreStats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Corrupt uint64 `json:"corrupt"`
	Saves   uint64 `json:"saves"`
}

// Stats returns the current counters.
func (st *CheckpointStore) Stats() StoreStats {
	if st == nil {
		return StoreStats{}
	}
	return StoreStats{
		Hits:    st.hits.Load(),
		Misses:  st.misses.Load(),
		Corrupt: st.corrupt.Load(),
		Saves:   st.saves.Load(),
	}
}

// AddStats folds another snapshot into s (merging worker-reported
// counters into an orchestrator's view).
func (s *StoreStats) AddStats(o StoreStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Corrupt += o.Corrupt
	s.Saves += o.Saves
}
