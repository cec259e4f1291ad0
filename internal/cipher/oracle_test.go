package cipher

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/tls"
	"crypto/x509"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math/big"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// The oracle here is not this package: it is the standard library's
// TLS 1.2 stack, whose ECDHE_ECDSA_WITH_CHACHA20_POLY1305_SHA256 suite
// seals every record with RFC 8439's AEAD (RFC 7905). A client writes
// over net.Pipe, its key log gives the master secret, the TLS 1.2 PRF
// gives the client's write key and IV, and every record the client
// sent must open under Open and under the fused XORKeyStreamMAC loop,
// and re-seal through both to the standard library's ciphertext and
// tag, byte for byte.

// oracleCert is a self-signed P-256 certificate, made once.
var oracleCert = sync.OnceValues(func() (tls.Certificate, error) {
	priv, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return tls.Certificate{}, err
	}
	tmpl := &x509.Certificate{SerialNumber: big.NewInt(1), NotBefore: time.Now().Add(-time.Hour), NotAfter: time.Now().Add(time.Hour)}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &priv.PublicKey, priv)
	return tls.Certificate{Certificate: [][]byte{der}, PrivateKey: priv}, err
})

// tapConn records what passes through a net.Conn in each direction.
type tapConn struct {
	net.Conn
	wrote, read bytes.Buffer
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.wrote.Write(p)
	return c.Conn.Write(p)
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Write(p[:n])
	return n, err
}

// tlsRecord is one record the client sent after its ChangeCipherSpec:
// its header and its body, the ciphertext and the tag.
type tlsRecord struct {
	hdr  [5]byte
	body []byte
}

// records splits a TLS byte stream into its records.
func records(t testing.TB, b []byte) (out []tlsRecord) {
	for len(b) > 0 {
		if len(b) < 5 || len(b) < 5+int(binary.BigEndian.Uint16(b[3:5])) {
			t.Fatalf("truncated TLS record stream: %d bytes left", len(b))
		}
		n := 5 + int(binary.BigEndian.Uint16(b[3:5]))
		out = append(out, tlsRecord{hdr: [5]byte(b[:5]), body: b[5:n]})
		b = b[n:]
	}
	return out
}

// prf12 is the TLS 1.2 PRF with SHA-256 (RFC 5246 §5): P_SHA256 of
// label‖seed under secret, n bytes of it.
func prf12(secret []byte, label string, seed []byte, n int) []byte {
	seed = append([]byte(label), seed...)
	h := hmac.New(sha256.New, secret)
	var out []byte
	for a := seed; len(out) < n; {
		h.Reset()
		h.Write(a)
		a = h.Sum(nil)
		h.Reset()
		h.Write(a)
		h.Write(seed)
		out = h.Sum(out)
	}
	return out[:n]
}

// tlsSession has a standard-library TLS 1.2 client write msgs to a
// standard-library server over net.Pipe under
// ECDHE_ECDSA_WITH_CHACHA20_POLY1305_SHA256 and close. It returns the
// client's write key and IV, derived from the key log, and every record
// the client sealed under them: its Finished, its application data and
// its close_notify alert, in sequence-number order.
func tlsSession(t testing.TB, msgs [][]byte) (*Key, [NonceSize]byte, []tlsRecord) {
	cert, err := oracleCert()
	if err != nil {
		t.Fatal(err)
	}
	c, s := net.Pipe()
	defer s.Close()
	tap := &tapConn{Conn: c}
	var keyLog bytes.Buffer
	client := tls.Client(tap, &tls.Config{
		InsecureSkipVerify: true, // the certificate is self-signed and the peer in-process
		MinVersion:         tls.VersionTLS12,
		MaxVersion:         tls.VersionTLS12,
		CipherSuites:       []uint16{tls.TLS_ECDHE_ECDSA_WITH_CHACHA20_POLY1305_SHA256},
		KeyLogWriter:       &keyLog,
	})
	server := tls.Server(s, &tls.Config{Certificates: []tls.Certificate{cert}, MaxVersion: tls.VersionTLS12})
	served := make(chan error, 1)
	go func() {
		_, err := io.Copy(io.Discard, server)
		served <- err
	}()
	if err := client.Handshake(); err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		if _, err := client.Write(m); err != nil {
			t.Fatal(err)
		}
	}
	if st := client.ConnectionState(); st.CipherSuite != tls.TLS_ECDHE_ECDSA_WITH_CHACHA20_POLY1305_SHA256 || st.Version != tls.VersionTLS12 {
		t.Fatalf("negotiated suite %#x, version %#x", st.CipherSuite, st.Version)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}

	// CLIENT_RANDOM <client random> <master secret>
	f := strings.Fields(keyLog.String())
	if len(f) != 3 || f[0] != "CLIENT_RANDOM" {
		t.Fatalf("unexpected key log %q", keyLog.String())
	}
	clientRandom, err1 := hex.DecodeString(f[1])
	master, err2 := hex.DecodeString(f[2])
	if err1 != nil || err2 != nil || len(clientRandom) != 32 || len(master) != 48 {
		t.Fatalf("unexpected key log %q", keyLog.String())
	}
	// The server random is in its first record, a ServerHello: type,
	// length (4), version (2), random (32).
	hello := records(t, tap.read.Bytes())[0]
	if hello.hdr[0] != 22 || len(hello.body) < 38 || hello.body[0] != 2 {
		t.Fatal("the server's first record is not a ServerHello")
	}
	// key_block: two empty MAC keys, the client and server write keys,
	// the client and server IVs (RFC 5246 §6.3, RFC 7905 §2).
	kb := prf12(master, "key expansion", append(append([]byte(nil), hello.body[6:38]...), clientRandom...), 2*KeySize+2*NonceSize)
	key := NewKey((*[KeySize]byte)(kb[:KeySize]))
	iv := [NonceSize]byte(kb[2*KeySize : 2*KeySize+NonceSize])

	var sealed []tlsRecord
	ccs := false
	for _, r := range records(t, tap.wrote.Bytes()) {
		if ccs {
			sealed = append(sealed, r)
		}
		ccs = ccs || r.hdr[0] == 20
	}
	return &key, iv, sealed
}

// fusedAEAD is RFC 8439's AEAD through the datapath's one pass: it XORs
// src into dst with XORKeyStreamMAC, which folds the ciphertext (dst if
// seal, else src) into the MAC on the way, and returns the tag.
func fusedAEAD(key *Key, nonce *[NonceSize]byte, aad, dst, src []byte, seal bool) (tag [TagSize]byte) {
	var otk [KeySize]byte
	TagKey(key, nonce, 0, &otk)
	mac := NewMAC(&otk)
	macPadded(&mac, aad)
	XORKeyStreamMAC(key, nonce, 0, dst, src, &mac, nil, nil, seal)
	var tail [32]byte
	pad := (16 - len(src)%16) % 16
	binary.LittleEndian.PutUint64(tail[pad:], uint64(len(aad)))
	binary.LittleEndian.PutUint64(tail[pad+8:], uint64(len(src)))
	mac.Update(tail[:pad+16])
	mac.Sum(tag[:])
	return tag
}

// checkRecords opens every sealed record with Open and with fusedAEAD,
// re-seals its plaintext through both, and requires the standard
// library's bytes back. It returns the application data, in order.
func checkRecords(t *testing.T, key *Key, iv [NonceSize]byte, recs []tlsRecord) []byte {
	var app []byte
	for seq, r := range recs {
		if len(r.body) < TagSize {
			t.Fatalf("record %d: %d bytes, shorter than a tag", seq, len(r.body))
		}
		// RFC 7905: the nonce is the IV XOR the 64-bit sequence number,
		// and the AAD is seq‖type‖version‖plaintext length.
		nonce := iv
		for i := range 8 {
			nonce[4+i] ^= byte(uint64(seq) >> (56 - 8*i))
		}
		n := len(r.body) - TagSize
		aad := binary.BigEndian.AppendUint64(nil, uint64(seq))
		aad = append(aad, r.hdr[:3]...)
		aad = binary.BigEndian.AppendUint16(aad, uint16(n))

		pt, ok := Open(nil, key, &nonce, r.body, aad)
		if !ok {
			t.Fatalf("record %d (type %d, %d bytes): Open rejects the standard library's tag", seq, r.hdr[0], n)
		}
		fpt := make([]byte, n)
		if tag := fusedAEAD(key, &nonce, aad, fpt, r.body[:n], false); !bytes.Equal(tag[:], r.body[n:]) || !bytes.Equal(fpt, pt) {
			t.Fatalf("record %d (%d bytes): the fused open disagrees with the standard library", seq, n)
		}
		if got := Seal(nil, key, &nonce, pt, aad); !bytes.Equal(got, r.body) {
			t.Fatalf("record %d (%d bytes): Seal gives %x, the standard library %x", seq, n, got, r.body)
		}
		ct := make([]byte, n)
		if tag := fusedAEAD(key, &nonce, aad, ct, pt, true); !bytes.Equal(ct, r.body[:n]) || !bytes.Equal(tag[:], r.body[n:]) {
			t.Fatalf("record %d (%d bytes): the fused seal gives %x‖%x, the standard library %x", seq, n, ct, tag, r.body)
		}
		if r.hdr[0] == 23 {
			app = append(app, pt...)
		}
	}
	return app
}

// oracleMsgs is what the client writes: lengths either side of the MAC's
// 16-byte block and the keystream's 64-byte block, and enough to fill
// records up to TLS's 16 KB limit.
func oracleMsgs() [][]byte {
	var msgs [][]byte
	for _, n := range []int{1, 15, 16, 17, 63, 64, 65, 255, 1000, 4096, 20000} {
		m := make([]byte, n)
		for i := range m {
			m[i] = byte(i*7 + n)
		}
		msgs = append(msgs, m)
	}
	return msgs
}

func TestStdlibOracle(t *testing.T) {
	msgs := oracleMsgs()
	key, iv, recs := tlsSession(t, msgs)
	// A Finished, a record or more per message, a close_notify.
	if len(recs) < len(msgs)+2 {
		t.Fatalf("%d sealed records for %d messages", len(recs), len(msgs))
	}
	eachKernel(t, func(t *testing.T) {
		if app := checkRecords(t, key, iv, recs); !bytes.Equal(app, bytes.Join(msgs, nil)) {
			t.Fatal("the opened application data is not what the client wrote")
		}
	})
}

// FuzzStdlibOracle runs the same comparison on arbitrary application
// data, written as two messages split at cut.
func FuzzStdlibOracle(f *testing.F) {
	f.Add([]byte("sixteen bytes..!"), uint16(0))
	f.Add(bytes.Repeat([]byte{0xa5}, 3000), uint16(1369))
	f.Add([]byte{}, uint16(7))
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		var msgs [][]byte
		at := min(int(cut), len(data))
		for _, m := range [][]byte{data[:at], data[at:]} {
			if len(m) > 0 {
				msgs = append(msgs, m)
			}
		}
		key, iv, recs := tlsSession(t, msgs)
		eachKernel(t, func(t *testing.T) {
			if app := checkRecords(t, key, iv, recs); !bytes.Equal(app, data) {
				t.Fatal("the opened application data is not what the client wrote")
			}
		})
	})
}
