package pon

import "testing"

// FuzzONUDeliver fuzzes the downstream delivery path with hostile
// frames: whatever a physical-layer attacker injects, delivery must not
// panic and must never accept a frame that fails decryption.
func FuzzONUDeliver(f *testing.F) {
	f.Add(uint16(1), uint64(1), false, []byte("plain"))
	f.Add(uint16(1), uint64(2), true, []byte("garbage-ct"))
	f.Fuzz(func(t *testing.T, port uint16, seq uint64, encrypted bool, payload []byte) {
		fr := XGEMFrame{Port: PortID(port), Seq: seq, Encrypted: encrypted, Payload: payload}
		onu := NewONU("fuzz-onu", nil)
		onu.port = 1
		var key [32]byte
		onu.keys.SetKey(1, key)
		before := len(onu.Received())
		if err := onu.deliver(fr, ModeEncrypted); err == nil && fr.Port == 1 {
			// Accepted: must have decrypted under the installed key, which
			// for fuzz input can only happen via a legitimately sealed
			// payload — verify it was recorded, not silently dropped.
			if len(onu.Received()) != before+1 {
				t.Fatal("accepted frame not recorded")
			}
		}
	})
}
