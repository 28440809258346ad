"""Layered benchmark of the out-of-core PLF engine (see README.md)."""
