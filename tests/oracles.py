"""Reference definitions that the tests check the package against."""


def apply_perm(sigma, point):
    """sigma . (j_1, ..., j_d) = (j_{sigma^-1(1)}, ..., j_{sigma^-1(d)}), 0-based coordinates."""
    inv = sigma.inverse().images
    return tuple(point[inv[s] - 1] for s in range(len(point)))
