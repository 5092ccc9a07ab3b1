package persist

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"genio/internal/container"
	"genio/internal/orchestrator"
)

// writeDataDir writes snap with json.Marshal and recs with json.Encoder,
// the way the platform wrote a data directory before the WAL codec.
func writeDataDir(t *testing.T, dir string, snap *State, recs []Record) {
	t.Helper()
	if snap != nil {
		buf, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, snapFile), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var log bytes.Buffer
	enc := json.NewEncoder(&log)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, walFile), log.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// recoveredVerdictKeys opens dir and returns the verdict keys a cluster
// importing the recovered state holds, with that state.
func recoveredVerdictKeys(t *testing.T, dir string) ([]string, *State) {
	t.Helper()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	st, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	c := orchestrator.NewCluster("recovered", container.NewRegistry(), orchestrator.Settings{})
	c.ImportState(st.Cluster)
	return c.VerdictKeys(), st
}

// TestLegacyVerdictDataDirRecovers: a data directory holding one
// admission-verdict record per (controller, digest) key and a snapshot
// with the flat cluster.verdicts list recovers to exactly those keys,
// per digest; a log mixing those records with per-digest ones
// converges on the union; a verdict record whose key is empty or has no
// NUL separator names no entry and is skipped. Snapshotting the
// recovered state writes the per-digest form only, and it recovers the
// same keys again.
func TestLegacyVerdictDataDirRecovers(t *testing.T) {
	const a, b, c = "sha256:aa", "sha256:bb", "sha256:cc"
	snap := &State{LSN: 2, Cluster: orchestrator.ClusterState{
		Verdicts: []string{"malware\x00" + a, "sast\x00" + a},
	}}
	legacy := []Record{
		{LSN: 1, Kind: KindVerdict, Key: "covered\x00" + a},
		{LSN: 3, Kind: KindVerdict, Key: "sca\x00" + a},
		{LSN: 4, Kind: KindVerdict, Key: "malware\x00" + b},
		{LSN: 5, Kind: KindVerdict, Key: ""},
		{LSN: 6, Kind: KindVerdict, Key: "no-separator"},
		{LSN: 7, Kind: KindVerdict, Key: "sast\x00"},
	}
	want := []string{"malware\x00" + a, "malware\x00" + b, "sast\x00" + a, "sca\x00" + a}

	dir := t.TempDir()
	writeDataDir(t, dir, snap, legacy)
	got, st := recoveredVerdictKeys(t, dir)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("legacy dir recovered %q, want %q", got, want)
	}
	if st.Cluster.Verdicts != nil || len(st.Cluster.Cleared) != 2 {
		t.Fatalf("recovered state %+v, want two per-digest entries and no flat list", st.Cluster)
	}

	mixed := append(legacy[:len(legacy):len(legacy)],
		Record{LSN: 8, Kind: KindVerdict, Verdict: &orchestrator.VerdictCommit{Digest: a, Controllers: []string{"docker-bench", "sca"}}},
		Record{LSN: 9, Kind: KindVerdict, Verdict: &orchestrator.VerdictCommit{Digest: c, Controllers: []string{"sast", "malware"}}},
		Record{LSN: 10, Kind: KindVerdict, Key: "docker-bench\x00" + c},
		Record{LSN: 11, Kind: KindVerdict, Verdict: &orchestrator.VerdictCommit{Digest: b}},
		Record{LSN: 12, Kind: KindVerdict, Verdict: &orchestrator.VerdictCommit{Controllers: []string{"orphan"}}},
		Record{LSN: 13, Kind: KindVerdict},
	)
	wantMixed := []string{
		"docker-bench\x00" + a, "docker-bench\x00" + c,
		"malware\x00" + a, "malware\x00" + b, "malware\x00" + c,
		"sast\x00" + a, "sast\x00" + c, "sca\x00" + a,
	}
	dir = t.TempDir()
	writeDataDir(t, dir, snap, mixed)
	got, st = recoveredVerdictKeys(t, dir)
	if !reflect.DeepEqual(got, wantMixed) {
		t.Fatalf("mixed log recovered %q, want %q", got, wantMixed)
	}

	// Compact the recovered state: the new snapshot has no legacy list.
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.LSN = w.LastLSN()
	if err := w.Snapshot(st); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(filepath.Join(dir, snapFile))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(buf), `"verdicts"`) || !strings.Contains(string(buf), `"cleared":{`) {
		t.Fatalf("compacted snapshot %s, want the per-digest form only", buf)
	}
	if got, _ = recoveredVerdictKeys(t, dir); !reflect.DeepEqual(got, wantMixed) {
		t.Fatalf("compacted dir recovered %q, want %q", got, wantMixed)
	}
}
