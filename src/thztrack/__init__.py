"""Frequency-scanning beam tracking and beamforming codebooks for TTD-aided wideband arrays."""
