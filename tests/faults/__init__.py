"""Tests for the fault-injection plane and the checkpoint crash sweep."""
