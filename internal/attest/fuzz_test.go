package attest

import (
	"bytes"
	"testing"
)

// FuzzQuoteDecode drives the quote parser and the full verification
// pipeline with arbitrary bytes. Invariants: never panic; anything that
// decodes re-encodes byte-identically (strict canonicality); and only the
// key holder's own quote verifies — every mutation of it must be rejected
// somewhere in the pipeline.
func FuzzQuoteDecode(f *testing.F) {
	qk := QuotingKeyFor([32]byte{42}, "sgx")
	m := Measure([]byte("fuzz enclave"))
	v := NewVerifier(Policy{Accepted: map[Measurement]string{m: "sgx/stock@2"}, MinTCB: map[string]uint32{"sgx": 2}, EnforceTCB: true})
	v.Trust("sgx", qk.Public())
	good := &Quote{Report: Report{Measurement: m, Nonce: []byte("fuzz-nonce"), AppData: []byte("rd")}, Arch: "sgx", Config: "stock", TCBVersion: 2}
	if err := qk.Sign(good); err != nil {
		f.Fatal(err)
	}
	goodWire, err := good.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(goodWire)
	f.Add([]byte(quoteMagic))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 200))
	trunc := append([]byte(nil), goodWire[:len(goodWire)/2]...)
	f.Add(trunc)
	f.Add(append(append([]byte(nil), goodWire...), 0)) // trailing byte

	f.Fuzz(func(t *testing.T, wire []byte) {
		q, err := DecodeQuote(wire)
		if err != nil {
			if q != nil {
				t.Fatal("decode returned both quote and error")
			}
			return
		}
		reenc, err := q.Encode()
		if err != nil || !bytes.Equal(reenc, wire) {
			t.Fatalf("decoded quote is not canonical: err=%v", err)
		}
		vd := v.Verify(wire, q.Nonce)
		if vd.OK && !bytes.Equal(wire, goodWire) {
			// Accepting means a valid signature over an allow-listed
			// measurement at an acceptable TCB. The only fuzz input that
			// can satisfy all of that without the signing key is the seed
			// quote itself.
			t.Fatalf("non-canonical quote verified: %+v", vd)
		}
	})
}
