"""The repo's benchmark (BENCHMARK.json): see bench/README.md."""
