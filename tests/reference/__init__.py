"""Slow, obviously-correct reference implementations the tests and the
benchmarks compare the production code against (bitwise where the
production path promises it)."""
