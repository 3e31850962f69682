"""Space backends: Wasserstein, positive-orthant sphere, Frobenius matrices.

Each module defines `distance`, `interpolate`, `transport`, `mean`,
`from_data`, `to_data`, `to_jsonable`, `manifest_fields` and
`PATH_INDEPENDENT` (see the README's package layout), and is registered in
`geometry._BACKENDS`.
"""
