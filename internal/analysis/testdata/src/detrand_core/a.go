// Fixture: detrand in a strict deterministic package (type-checked as
// .../internal/core). Clock reads, environment reads and every use of
// the global math/rand generators must be flagged; explicitly seeded
// *rand.Rand methods and pure time constructors stay legal.
package core

import (
	"math/rand"
	randv2 "math/rand/v2"
	"os"
	"time"

	"example.test/internal/rng"
)

func clockReads() (time.Time, time.Duration) {
	now := time.Now()          // want `time\.Now reads the clock in deterministic package`
	d := time.Since(now)       // want `time\.Since reads the clock in deterministic package`
	time.Sleep(time.Millisecond) // want `time\.Sleep reads the clock in deterministic package`
	return now, d
}

func pureTimeIsFine() time.Duration {
	d, _ := time.ParseDuration("3s")
	return d + 2*time.Second
}

func envReads() string {
	if v, ok := os.LookupEnv("ACCU_MODE"); ok { // want `os\.LookupEnv makes .* depend on the process environment`
		return v
	}
	return os.Getenv("HOME") // want `os\.Getenv makes .* depend on the process environment`
}

func globalRand() (int, float64) {
	a := randv2.IntN(10) // want `math/rand/v2\.IntN bypasses the internal/rng seed tree`
	b := rand.Float64()  // want `math/rand\.Float64 bypasses the internal/rng seed tree`
	return a, b
}

func adHocGenerator() *randv2.Rand {
	return randv2.New(randv2.NewPCG(1, 2)) // want `rand\.New constructs an ad-hoc generator` `math/rand/v2\.NewPCG bypasses the internal/rng seed tree`
}

func seededIsFine(seed rng.Seed) int {
	r := seed.Rand()
	return r.IntN(10) + int(r.Uint64()%3)
}

func allowed() time.Time {
	//accu:allow detflow -- fixture: directive must suppress the finding
	return time.Now()
}
