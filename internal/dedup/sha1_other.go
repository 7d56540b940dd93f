//go:build !amd64

package dedup

import "crypto/sha1"

// useSHANI is false off amd64: Sum is crypto/sha1.Sum.
var useSHANI = false

func sumSHANI(data []byte) Fingerprint { return sha1.Sum(data) }
