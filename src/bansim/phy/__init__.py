"""Physical layer: rate tables, spreading codes, block coding, frame codecs."""
