"""Backends that serve the three routes: the Backend protocol and its records
(base), the seeded generator (synthetic) and the HTTP adapter (remote)."""
