"""Workload names and input sizes, readable without importing the library."""

WORKLOADS = ("verify-full", "long-inputs", "genfun-routes")

# "full" is what the benchmark measures; "tiny" only proves that every
# workload runs and reports every metric.
SIZES = {
    "full": {
        "verify-full": {"profile": "full"},
        "long-inputs": {
            "word_len": (16, 512),
            "words_per_alphabet": 64,
            "alphabets": (2, 3, 6),
            "partition_size": (20, 400),
            "partition_sizes": 16,
            "partitions_per_size": 8,
        },
        "genfun-routes": {
            "q_binomial_n": (24, 28, 32, 36),
            "lucanomial_rows": (10, 11, 12, 13, 14),
            "st_catalan_max": 8,
            "fib_closed_n": (14, 15, 16, 17, 18, 19, 20),
            "perm_half": 9,
            "partitions_max": 34,
            "fib_words_n": 22,
            "catalan_n": 10,
        },
        "setup_repeats": 21,
    },
    "tiny": {
        "verify-full": {"profile": "quick"},
        "long-inputs": {
            "word_len": (8, 24),
            "words_per_alphabet": 6,
            "alphabets": (2, 3, 6),
            "partition_size": (6, 20),
            "partition_sizes": 2,
            "partitions_per_size": 4,
        },
        "genfun-routes": {
            "q_binomial_n": (8, 10),
            "lucanomial_rows": (4, 5),
            "st_catalan_max": 3,
            "fib_closed_n": (6, 7),
            "perm_half": 3,
            "partitions_max": 8,
            "fib_words_n": 6,
            "catalan_n": 3,
        },
        "setup_repeats": 3,
    },
}
