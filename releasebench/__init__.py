"""One end-to-end benchmark for the release path (see README.md)."""
