package persist

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"genio/internal/orchestrator"
)

// fuzzLog writes recs through a fresh WAL (Append, then Flush) and returns
// the log's bytes together with the records as the WAL numbered them.
func fuzzLog(f *testing.F, recs []Record) ([]byte, []Record) {
	f.Helper()
	dir := f.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		f.Fatal(err)
	}
	var written []Record
	for i, r := range recs {
		if err := w.Append(r); err != nil {
			f.Fatal(err)
		}
		r.LSN = uint64(i + 1)
		written = append(written, r)
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	log, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		f.Fatal(err)
	}
	return log, written
}

// replayable is the recovery contract stated over raw log bytes: the
// records of the complete lines up to the first non-blank line that
// does not parse, skipping LSN 0 (at or below an absent snapshot's LSN).
func replayable(log []byte) []Record {
	var out []Record
	for {
		i := bytes.IndexByte(log, '\n')
		if i < 0 {
			return out // an unterminated tail is torn, whatever it holds
		}
		line := bytes.TrimSpace(log[:i])
		log = log[i+1:]
		if len(line) == 0 {
			continue
		}
		var r Record
		if json.Unmarshal(line, &r) != nil {
			return out
		}
		if r.LSN > 0 {
			out = append(out, r)
		}
	}
}

// sameRecords compares record lists, nil and empty alike.
func sameRecords(a, b []Record) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// recovered opens dir, checks Load succeeds, and returns the log records
// the store recovered (its replay tail), closing the store.
func recovered(t *testing.T, dir string) []Record {
	t.Helper()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	defer w.Close()
	if _, err := w.Load(); err != nil {
		t.Fatalf("Load: %v", err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]Record(nil), w.tail...)
}

// FuzzWALRecover damages a log of K records written through Append and
// Flush — cut at an offset, trailing garbage appended, one bit flipped —
// and checks recovery: OpenWAL and Load never panic; the complete lines
// the damage did not touch come back exactly, and with a torn tail alone
// nothing else does; nothing after a line that no longer parses is
// replayed; and a reopen → append → reopen cycle keeps every recovered
// record plus the new one.
func FuzzWALRecover(f *testing.F) {
	log, written := fuzzLog(f, []Record{
		joinRecord("olt-01", 4000),
		{Kind: KindQuota, Tenant: "acme", Quota: &orchestrator.Resources{CPUMilli: 2000, MemoryMB: 512}},
		placeRecord("web", "olt-01", 500),
		{Kind: KindVerdict, Key: "malware\x00sha256:abc"},
		{Kind: KindIncident, Incident: &Incident{Source: "admission", Workload: "web", Detail: "x", Blocked: true, Seq: 1}},
		{Kind: KindStop, Name: "web"},
	})
	f.Add(uint32(len(log)), []byte(nil), uint32(0))
	f.Add(uint32(len(log)/2), []byte(nil), uint32(0))
	f.Add(uint32(len(log)), []byte("{\"lsn\":7,"), uint32(0))
	f.Add(uint32(len(log)), []byte("garbage\n"), uint32(0))
	f.Add(uint32(len(log)), []byte(nil), uint32(8*len(log)/3+1))
	f.Add(uint32(len(log)-1), []byte("\n{\"lsn\":9,\"kind\":\"workload-stop\",\"name\":\"db\"}\n"), uint32(0))

	f.Fuzz(func(t *testing.T, cut uint32, garbage []byte, flip uint32) {
		data := append([]byte(nil), log[:int(cut)%(len(log)+1)]...)
		// touched is the offset of the first byte the damage changed: the
		// complete lines before it are intact.
		touched := len(data)
		if flip > 0 && len(data) > 0 {
			bit := int(flip-1) % (8 * len(data))
			data[bit/8] ^= 1 << (bit % 8)
			touched = bit / 8
		}
		torn := len(garbage) == 0 && touched == len(data)
		data = append(data, garbage...)

		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got := recovered(t, dir)

		intact := bytes.Count(log[:touched], []byte{'\n'})
		if len(got) < intact || !sameRecords(got[:intact], written[:intact]) {
			t.Fatalf("recovered %+v, want the %d intact records %+v first", got, intact, written[:intact])
		}
		if torn && len(got) != intact {
			t.Fatalf("torn tail: recovered %d records, want exactly the %d complete lines", len(got), intact)
		}
		if want := replayable(data); !sameRecords(got, want) {
			t.Fatalf("recovered %+v, want the %d records before the first unparsable line", got, len(want))
		}

		// Reopen, append one record, reopen: nothing recovered is lost and
		// the new record is not fused with a torn tail.
		w, err := OpenWAL(dir)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		next := Record{Kind: KindStop, Name: "after-recovery"}
		if err := w.Append(next); err != nil {
			t.Fatal(err)
		}
		next.LSN = w.LastLSN()
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if again := recovered(t, dir); !sameRecords(again, append(got, next)) {
			t.Fatalf("after append and reopen: %+v, want %+v then %+v", again, got, next)
		}
	})
}
