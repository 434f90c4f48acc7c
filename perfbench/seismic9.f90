! Nine-point cross stencil in the paper's own positional spelling:
! CSHIFT(X, k, m) means DIM=k, SHIFT=m -- the reverse of standard
! Fortran 90.  `python -m repro lint` accepts the file but flags each
! positional call with an RS201 warning and a keyword-form fix-it.
SUBROUTINE SEISMIC (R, X, C1, C2, C3, C4, C5, C6, C7, C8, C9)
REAL, ARRAY(:, :) :: R, X, C1, C2, C3, C4, C5, C6, C7, C8, C9
R = C1 * CSHIFT (X, 1, -2) &
  + C2 * CSHIFT (X, 1, -1) &
  + C3 * CSHIFT (X, 2, -2) &
  + C4 * CSHIFT (X, 2, -1) &
  + C5 * X &
  + C6 * CSHIFT (X, 2, +1) &
  + C7 * CSHIFT (X, 2, +2) &
  + C8 * CSHIFT (X, 1, +1) &
  + C9 * CSHIFT (X, 1, +2)
END
