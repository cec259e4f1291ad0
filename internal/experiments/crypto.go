package experiments

import (
	"math/rand"
	"time"

	"repro/internal/cipher"
	"repro/internal/ilp"
	"repro/internal/scramble"
)

// CryptoPoint is one payload size of the C1 measurement: the AEAD
// datapath staged (keystream pass, then MAC pass) against the fused
// kernel (one loop producing ciphertext and absorbing it into the tag
// as it goes), plus the fused decrypt+verify direction.
type CryptoPoint struct {
	Bytes       int
	StagedMbps  float64 // XORKeyStream pass + Poly1305 pass + Sum
	FusedMbps   float64 // FusedEncryptCopyMAC + Sum
	DecryptMbps float64 // FusedDecryptCopyVerify + Verify
	Speedup     float64 // fused / staged
}

// CryptoReport holds the C1 sweep and the legacy keystream for
// contrast.
type CryptoReport struct {
	Points []CryptoPoint
	// ScrambleMbps is the legacy scramble keystream (scramble.XORAt,
	// splitmix64 in counter mode) on 4 KiB — the confidentiality-only
	// plane the AEAD suite replaces.
	ScrambleMbps float64
}

// RunCrypto measures the ChaCha20-Poly1305 kernels at each payload
// size, spending about minTime per kernel. This is the §6 ILP argument
// applied to the crypto plane: encryption and integrity are two data
// manipulations, and fusing them into one memory pass should beat
// running them as two.
func RunCrypto(sizes []int, minTime time.Duration) CryptoReport {
	var rep CryptoReport
	key := cipher.ExpandKey(0xBADC0FFEE)
	var nonce [cipher.NonceSize]byte
	nonce[0] = 1
	var tagKey [cipher.KeySize]byte
	cipher.TagKey(&key, &nonce, 1<<30, &tagKey)
	tag := make([]byte, cipher.TagSize)

	for _, n := range sizes {
		src := make([]byte, n)
		rand.New(rand.NewSource(5)).Read(src)
		dst := make([]byte, n)

		staged := rate(n, minTime, func() {
			mac := cipher.NewMAC(&tagKey)
			cipher.XORKeyStream(&key, &nonce, 0, dst, src)
			mac.Update(dst)
			mac.Sum(tag)
		})
		fused := rate(n, minTime, func() {
			mac := cipher.NewMAC(&tagKey)
			ilp.FusedEncryptCopyMAC(dst, src, &key, &nonce, 0, &mac)
			mac.Sum(tag)
		})

		ct := make([]byte, n)
		seal := cipher.NewMAC(&tagKey)
		ilp.FusedEncryptCopyMAC(ct, src, &key, &nonce, 0, &seal)
		seal.Sum(tag)
		pt := make([]byte, n)
		dec := rate(n, minTime, func() {
			mac := cipher.NewMAC(&tagKey)
			ilp.FusedDecryptCopyVerify(pt, ct, &key, &nonce, 0, &mac)
			if !mac.Verify(tag) {
				panic("experiments: crypto kernel tag mismatch")
			}
		})

		rep.Points = append(rep.Points, CryptoPoint{
			Bytes:       n,
			StagedMbps:  staged,
			FusedMbps:   fused,
			DecryptMbps: dec,
			Speedup:     fused / staged,
		})
	}

	buf := make([]byte, 4096)
	rep.ScrambleMbps = rate(len(buf), minTime, func() { scramble.XORAt(7, 0, buf) })
	return rep
}
