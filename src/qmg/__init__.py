"""Entangled minority-game channel allocation: exact interference math,
dense qudit/qubit simulators, and a slotted cognitive-radio MAC benchmark."""

__version__ = "0.1.0"
