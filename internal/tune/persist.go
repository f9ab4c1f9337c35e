package tune

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"luqr/internal/core"
)

// TableVersion is the on-disk format version. Versions 1..TableVersion load
// (older tables migrate forward — fields they predate start empty); anything
// newer or unrecognized is quarantined, forcing a clean re-probe rather than
// a misread.
//
//	1: (nb, ib, workers) entries only.
//	2: entries gain the per-criterion learned α states ("alphas"). A v1
//	   table loads with every α state absent — probed operating points are
//	   kept, nothing is quarantined, and learning starts fresh.
const TableVersion = 2

// table is the in-memory tuning table: machine fingerprint → class → entry.
type table struct {
	Machines map[string]map[string]Entry `json:"machines"`
}

func newTable() *table {
	return &table{Machines: make(map[string]map[string]Entry)}
}

// fileWrapper is the on-disk envelope: version header plus a SHA-256 over
// the exact table bytes, so torn writes and bit rot are detected before any
// entry is applied — the same posture as the factor store's stream header.
type fileWrapper struct {
	Version  int             `json:"version"`
	Checksum string          `json:"sha256"`
	Table    json.RawMessage `json:"table"`
}

// checksum hashes the compact form of a JSON payload, so re-indentation in
// transit (MarshalIndent rewrites embedded RawMessage whitespace) does not
// register as damage while any content change does.
func checksum(data []byte) string {
	var buf bytes.Buffer
	if err := json.Compact(&buf, data); err == nil {
		data = buf.Bytes()
	}
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

// loadTable reads the table at path. A missing file is an empty table; a
// damaged or version-skewed one is quarantined (renamed to <path>.corrupt)
// and reported (quarantined == true) alongside an empty table, so the caller
// re-probes instead of trusting bad data.
func loadTable(path string) (tab *table, quarantined bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return newTable(), false, nil
		}
		return newTable(), false, err
	}
	var w fileWrapper
	if jerr := json.Unmarshal(data, &w); jerr != nil {
		quarantine(path)
		return newTable(), true, fmt.Errorf("tune: unreadable table (quarantined): %w", jerr)
	}
	if w.Version < 1 || w.Version > TableVersion {
		quarantine(path)
		return newTable(), true, fmt.Errorf("tune: table version %d, want 1..%d (quarantined)", w.Version, TableVersion)
	}
	if checksum(w.Table) != w.Checksum {
		quarantine(path)
		return newTable(), true, fmt.Errorf("tune: table checksum mismatch (quarantined)")
	}
	var t table
	if jerr := json.Unmarshal(w.Table, &t); jerr != nil {
		quarantine(path)
		return newTable(), true, fmt.Errorf("tune: malformed table body (quarantined): %w", jerr)
	}
	if err := t.validate(); err != nil {
		quarantine(path)
		return newTable(), true, fmt.Errorf("tune: %w (quarantined)", err)
	}
	if t.Machines == nil {
		t.Machines = make(map[string]map[string]Entry)
	}
	return &t, false, nil
}

// validate rejects entries the tuner never writes and a reader must not
// apply: a negative tile or block size, a worker count outside
// [0, core.MaxWorkers] (the engine would die allocating it), or an α state
// that is missing or negative. NB == 0 is the α-only entry Observe writes
// before a class is probed.
func (t *table) validate() error {
	for m, classes := range t.Machines {
		for c, e := range classes {
			if e.NB < 0 || e.IB < 0 || e.Workers < 0 || e.Workers > core.MaxWorkers {
				return fmt.Errorf("entry %s %s out of range: %v", m, c, e.Point)
			}
			for crit, st := range e.Alphas {
				if st == nil || st.Alpha < 0 || st.Samples < 0 || st.Backoffs < 0 {
					return fmt.Errorf("entry %s %s: invalid α state %q", m, c, crit)
				}
			}
		}
	}
	return nil
}

// quarantine moves a damaged table aside (so it can be inspected) rather
// than deleting it; if even the rename fails, the file is removed so the
// next save is not blocked.
func quarantine(path string) {
	if err := os.Rename(path, path+".corrupt"); err != nil {
		_ = os.Remove(path)
	}
}

// saveTable lands the table at path crash-safely: temp file in the target
// directory, sync, then rename — a reader sees the old table or the new one,
// never a torn mix.
func saveTable(path string, tab *table) error {
	body, err := json.Marshal(tab)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(fileWrapper{
		Version:  TableVersion,
		Checksum: checksum(body),
		Table:    body,
	}, "", "  ")
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tune-*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(out); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
