package cache

// Halvings returns how many times c has halved its counts.
func Halvings(c *Cache) int { return c.halvings }

// MaxAgeEvery is New's first and longest ageing period, in capacities.
const MaxAgeEvery = maxAgeEvery
