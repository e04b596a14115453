// Cache side-channel walkthrough (Section 4.1): recover AES key material
// with Prime+Probe and Flush+Reload on an undefended platform, then watch
// Sanctum-style LLC partitioning and Sanctuary-style cache exclusion kill
// the same attacks.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"github.com/intrust-sim/intrust/internal/attack/cachesca"
	"github.com/intrust-sim/intrust/internal/cache"
	"github.com/intrust-sim/intrust/internal/platform"
)

const (
	victimDomain   = 5
	attackerDomain = 9
	tableBase      = 0x40000
	samples        = 300
)

func main() {
	key := []byte("victim aes key!!")
	rng := rand.New(rand.NewSource(1))

	// Scenario 1: undefended shared cache (SGX / TrustZone situation).
	plat := platform.NewServer()
	victim, err := cachesca.NewVictim(plat.Core(0).Hier, key, victimDomain, tableBase)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== undefended platform (SGX / TrustZone have no cache defense) ==")
	fmt.Println(cachesca.FlushReload(victim, samples, attackerDomain, rng))
	fmt.Println(cachesca.PrimeProbe(victim, plat.LLC, samples, attackerDomain, rng))
	fmt.Println(cachesca.EvictTime(victim, samples*8, rng))

	// Scenario 2: Sanctum — LLC partitioning between domains.
	plat2 := platform.NewServer()
	victim2, err := cachesca.NewVictim(plat2.Core(0).Hier, key, victimDomain, tableBase)
	if err != nil {
		log.Fatal(err)
	}
	plat2.LLC.SetPartition(victimDomain, 0x00ff)
	plat2.LLC.SetPartition(attackerDomain, 0xff00)
	fmt.Println("\n== Sanctum-style LLC partition ==")
	fmt.Println(cachesca.PrimeProbe(victim2, plat2.LLC, samples, attackerDomain, rng))

	// Scenario 3: Sanctuary — enclave memory excluded from shared caches.
	plat3 := platform.NewServer()
	victim3, err := cachesca.NewVictim(plat3.Core(0).Hier, key, victimDomain, tableBase)
	if err != nil {
		log.Fatal(err)
	}
	plat3.Core(0).Hier.Cacheability = func(addr uint32) cache.Level {
		if addr >= tableBase && addr < tableBase+5*0x400 {
			return cache.LevelL1
		}
		return cache.LevelAll
	}
	fmt.Println("\n== Sanctuary-style cache exclusion ==")
	fmt.Println(cachesca.PrimeProbe(victim3, plat3.LLC, samples, attackerDomain, rng))

	// Bonus: the TLB and BTB channels the paper cites ([15], [28]).
	tlb := cache.NewTLB(32, 4)
	secret := []byte{0xA5, 0x3C}
	_, bits := cachesca.TLBAttack(tlb, secret, 1, 2)
	fmt.Printf("\nTLB prime+probe: %d/%d secret bits through the shared TLB\n", bits, len(secret)*8)
}
