package diskcache

import (
	"bytes"
	"testing"
)

// FuzzEnvelopeDecode pins the decoder's two safety invariants over
// arbitrary bytes:
//
//  1. decode never panics, whatever the input — a poisoned cache file
//     must read as a miss, not crash the service;
//  2. canonical form — any envelope decode accepts re-encodes
//     byte-identically, so exactly one wire string exists per
//     (addr, body) pair and a tampered-but-accepted variant cannot
//     exist.
func FuzzEnvelopeDecode(f *testing.F) {
	macKey := deriveMACKey("fuzz-secret")
	good := encode(macKey, "cell|v1|flush+reload|sgx|none|64|0|0|0", []byte(`{"verdict":"LEAKS"}`+"\n"))
	f.Add(good)
	f.Add(encode(macKey, "", nil))
	f.Add(good[:len(good)-1])                    // truncated MAC
	f.Add(append(good[:len(good):len(good)], 0)) // trailing byte
	f.Add([]byte("IDC1"))
	f.Add([]byte{})
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x20
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, env []byte) {
		addr, body, err := decode(macKey, env)
		if err != nil {
			return
		}
		if re := encode(macKey, addr, body); !bytes.Equal(re, env) {
			t.Fatalf("accepted envelope is not canonical:\n in: %x\nout: %x", env, re)
		}
	})
}

// FuzzEnvelopeRoundTrip pins encode∘decode as the identity for
// arbitrary (addr, body) pairs under arbitrary secrets — and that a
// second secret never authenticates the first secret's envelope.
func FuzzEnvelopeRoundTrip(f *testing.F) {
	f.Add("secret", "cell|v1|dpa|sgx|stock|1500|0.9|0|0", []byte("body\n"))
	f.Add("", "", []byte(nil))
	f.Add("s", "addr with | pipe % escape", []byte{0, 1, 2, 255})

	f.Fuzz(func(t *testing.T, secret, addr string, body []byte) {
		if len(addr) > maxAddrLen {
			return
		}
		key := deriveMACKey(secret)
		env := encode(key, addr, body)
		gotAddr, gotBody, err := decode(key, env)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if gotAddr != addr || !bytes.Equal(gotBody, body) {
			t.Fatalf("round trip mutated: addr %q->%q body %x->%x", addr, gotAddr, body, gotBody)
		}
		if _, _, err := decode(deriveMACKey(secret+"x"), env); err == nil {
			t.Fatal("envelope authenticated under a different secret")
		}
	})
}
