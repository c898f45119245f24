"""Seeded mutation: a suppression that suppresses nothing. Stale
waivers hide real findings the day the code changes underneath them."""

TARGET_BUFFER_S = 12.0  # lint: allow[DET-SET-ORDER]
