"""QUADPACK's QAGS and QAGI, ported step for step from the Fortran of
Piessens, de Doncker-Kapenga, Ueberhuber & Kahaner (1983), with Wynn's
epsilon algorithm (Wynn 1956) for the extrapolation.

``qags`` integrates a finite piece by QAGSE with the 21-point Gauss-Kronrod
rule, and ``qagi`` a tail (a, inf) by QAGIE with the 15-point rule on
x = a + (1 - t)/t, always with limit = 200 and epsabs = epsrel = tol.  Each
takes the same points and gives the same value, error estimate and
evaluation count as ``scipy.integrate.quad`` with those settings.  The
adaptive loop's lists keep QUADPACK's indices, which start at 1, so their
slot 0 is unused; the rules count their nodes j from 0.

``numerics.integrate`` imports this module at its first call, so that
``import mpmue`` does not load it.
"""

from __future__ import annotations

import sys
from functools import partial

from .errors import NumericError

_EPS = sys.float_info.epsilon  # d1mach(4)
_UFLOW = sys.float_info.min  # d1mach(1)
_OFLOW = sys.float_info.max  # d1mach(2)
_LIMIT = 200


# QK21: the 21-point Kronrod rule and the 10-point Gauss rule inside it.  The
# nodes x_j and Kronrod weights are in the order of j, the centre's weight
# last; the Gauss rule takes the odd j (from 0).  QUADPACK evaluates and sums
# the Gauss nodes first, so the rule walks (j, x_j, Kronrod weight, Gauss
# weight) for those, then for the others with Gauss weight 0.
_XGK21 = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
          0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
          0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
          0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
          0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_WGK21 = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
          0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
          0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
          0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
          0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
          0.149445554002916905664936468389821)
_WG10 = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
         0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
         0.295524224714752870173892994651338)
_QK21 = (tuple((j, _XGK21[j], _WGK21[j], _WG10[j // 2]) for j in range(1, 10, 2))
         + tuple((j, _XGK21[j], _WGK21[j], 0.0) for j in range(0, 10, 2)))

# QK15I: the 15-point Kronrod rule and the 7-point Gauss rule inside it, in
# the same layout; the Gauss weights of the Kronrod-only nodes are 0, and
# the rule walks (j, x_j, Kronrod weight, Gauss weight) in the order of j.
_XGK15 = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
          0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
          0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
          0.207784955007898467600689403773245)
_WGK15 = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
          0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
          0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
          0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG7 = (0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
        0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327)
_QK15 = tuple(zip(range(7), _XGK15, _WGK15, _WG7))

# A rule's error estimate has a floor of 50 eps times the integral of |f|,
# once that integral is above uflow / (50 eps).
_EPS50 = 50.0 * _EPS
_RESABS_FLOOR = _UFLOW / _EPS50


def _qk21(f, a: float, b: float) -> tuple[float, float, float, float]:
    """QK21 on (a, b): the 21-point Kronrod sum, its error estimate, and the
    integrals of |f| and of |f - mean| (QUADPACK's resabs and resasc)."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = float(f(centr))
    resg = 0.0
    resk = _WGK21[10] * fc
    resabs = abs(resk)
    fv1 = [0.0] * 10  # f at centr - x_j h
    fv2 = [0.0] * 10  # f at centr + x_j h
    for j, x, wk, wg in _QK21:
        absc = hlgth * x
        fval1 = fv1[j] = float(f(centr - absc))
        fval2 = fv2[j] = float(f(centr + absc))
        fsum = fval1 + fval2
        resg += wg * fsum
        resk += wk * fsum
        resabs += wk * (abs(fval1) + abs(fval2))
    return _error(hlgth, fc, fv1, fv2, resg, resk, resabs, _WGK21)


def _qk15i(f, boun: float, a: float, b: float) -> tuple[float, float, float, float]:
    """QK15I on t in (a, b) within (0, 1], for the integral of f over
    (boun, inf) as that of f(boun + (1 - t)/t) / t^2; returns what
    ``_qk21`` does."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = float(f(boun + (1.0 - centr) / centr)) / centr / centr
    resg = _WG7[7] * fc
    resk = _WGK15[7] * fc
    resabs = abs(resk)
    fv1 = [0.0] * 7
    fv2 = [0.0] * 7
    for j, x, wk, wg in _QK15:
        absc = hlgth * x
        absc1 = centr - absc
        absc2 = centr + absc
        fval1 = fv1[j] = float(f(boun + (1.0 - absc1) / absc1)) / absc1 / absc1
        fval2 = fv2[j] = float(f(boun + (1.0 - absc2) / absc2)) / absc2 / absc2
        fsum = fval1 + fval2
        resg += wg * fsum
        resk += wk * fsum
        resabs += wk * (abs(fval1) + abs(fval2))
    return _error(hlgth, fc, fv1, fv2, resg, resk, resabs, _WGK15)


def _error(hlgth, fc, fv1, fv2, resg, resk, resabs, wgk) -> tuple[float, float, float, float]:
    """The end both rules share: the sum over (a, b), QUADPACK's error
    estimate from the Kronrod-Gauss difference, resabs and resasc.  ``fv1``
    and ``fv2`` hold f below and above the centre in the order of ``wgk``,
    whose last entry is the centre's.  Raises NumericError where the sum or
    the error estimate is not finite."""
    reskh = resk * 0.5
    resasc = wgk[-1] * abs(fc - reskh)
    for wk, fval1, fval2 in zip(wgk, fv1, fv2):
        resasc += wk * (abs(fval1 - reskh) + abs(fval2 - reskh))
    result = resk * hlgth
    resabs *= hlgth
    resasc *= hlgth
    abserr = abs((resk - resg) * hlgth)
    if not (abs(result) <= _OFLOW and abserr <= _OFLOW and resabs <= _OFLOW
            and resasc <= _OFLOW):
        raise NumericError(f"the integrand is not finite, or its Gauss-Kronrod sum overflows: "
                           f"sum {result!r}, error estimate {abserr!r}")
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _RESABS_FLOOR:
        abserr = max(_EPS50 * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(last: int, maxerr: int, elist: list, iord: list, nrmax: int) -> tuple[int, int]:
    """QPSRT: keeps ``iord`` listing the intervals by descending error
    estimate, as far as the remaining subdivisions can reach, and returns
    the interval to bisect next with its rank (maxerr, nrmax)."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
        return iord[nrmax], nrmax
    errmax = elist[maxerr]
    # Subdivision raised the error estimate: start the insertion higher up.
    for _ in range(nrmax - 1):
        isucc = iord[nrmax - 1]
        if errmax <= elist[isucc]:
            break
        iord[nrmax] = isucc
        nrmax -= 1
    jupbn = last if last <= _LIMIT // 2 + 2 else _LIMIT + 3 - last
    errmin = elist[last]
    jbnd = jupbn - 1
    # Insert errmax top-down, then errmin bottom-up.
    for i in range(nrmax + 1, jbnd + 1):
        isucc = iord[i]
        if errmax >= elist[isucc]:
            iord[i - 1] = maxerr
            k = jbnd
            for _ in range(i, jbnd + 1):
                isucc = iord[k]
                if errmin < elist[isucc]:
                    iord[k + 1] = last
                    break
                iord[k + 1] = isucc
                k -= 1
            else:
                iord[i] = last
            return iord[nrmax], nrmax
        iord[i - 1] = isucc
    iord[jbnd] = maxerr
    iord[jupbn] = last
    return iord[nrmax], nrmax


_LIMEXP = 50


def _qelg(n: int, epstab: list, res3la: list, nres: int) -> tuple[int, int, float, float]:
    """QELG: Wynn's epsilon algorithm on the ``n`` partial sums in
    ``epstab``.  Returns the new table length, the call count, the
    extrapolated value and its error estimate; ``res3la`` keeps the last
    three values for that estimate."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n < 3:
        return n, nres, result, max(abserr, 5.0 * _EPS * abs(result))
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    num = k1 = n
    for i in range(1, newelm + 1):
        k2, k3 = k1 - 1, k1 - 2
        res = epstab[k1 + 2]
        e0, e1, e2 = epstab[k3], epstab[k2], res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * _EPS
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * _EPS
        if not (err2 > tol2 or err3 > tol3):
            # e0, e1 and e2 agree to machine accuracy: converged.
            return n, nres, res, max(err2 + err3, 5.0 * _EPS * abs(res))
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPS
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        if not abs(ss * e1) > 1e-4:
            # Irregular behaviour in the table: cut it at this column.
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 -= 2
        error = err2 + abs(res - e2) + err3
        if not error > abserr:
            abserr = error
            result = res
    # Shift the table.
    if n == _LIMEXP:
        n = 2 * (_LIMEXP // 2) - 1
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):
        epstab[ib] = epstab[ib + 2]
        ib += 2
    if num != n:
        indx = num - n + 1
        for i in range(1, n + 1):
            epstab[i] = epstab[indx]
            indx += 1
    if nres < 4:
        res3la[nres] = result
        abserr = _OFLOW
    else:
        abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                  + abs(result - res3la[1]))
        res3la[1], res3la[2], res3la[3] = res3la[2], res3la[3], result
    return n, nres, result, max(abserr, 5.0 * _EPS * abs(result))


def qags(f, a: float, b: float, tol: float) -> tuple[float, float, int]:
    """QAGSE: the integral of f over the finite (a, b), its error estimate
    and the number of evaluations of f."""
    return _qage(partial(_qk21, f), 21, a, b, tol)


def qagi(f, bound: float, tol: float) -> tuple[float, float, int]:
    """QAGIE: the integral of f over (bound, inf), through QK15I on t in
    (0, 1], its error estimate and the number of evaluations of f."""
    return _qage(partial(_qk15i, f, bound), 15, 0.0, 1.0, tol)


def _qage(rule, points: int, a: float, b: float, tol: float) -> tuple[float, float, int]:
    """The adaptive loop that QAGSE (with QK21) and QAGIE (with QK15I on
    (0, 1)) share, for ``rule(a, b)`` with ``points`` nodes: bisect the
    interval with the largest error estimate, and once the largest error
    sits on the smallest intervals, extrapolate the sequence of sums by
    QELG.  Returns the value, the error estimate and the number of
    evaluations of f."""
    epsabs = epsrel = tol
    result, abserr, defabs, resabs = rule(a, b)
    errbnd = max(epsabs, epsrel * abs(result))
    if ((abserr <= 100.0 * _EPS * defabs and abserr > errbnd)
            or (abserr <= errbnd and abserr != resabs) or abserr == 0.0):
        return result, abserr, points
    size = _LIMIT + 1
    alist, blist, rlist, elist = [0.0] * size, [0.0] * size, [0.0] * size, [0.0] * size
    iord = [0] * size
    alist[1], blist[1], rlist[1], elist[1], iord[1] = a, b, result, abserr, 1
    rlist2 = [0.0] * (_LIMEXP + 3)
    res3la = [0.0] * 4
    rlist2[1] = result
    errmax, maxerr, area, errsum, abserr = abserr, 1, result, abserr, _OFLOW
    nrmax, nres, numrl2, ktmin = 1, 0, 2, 0
    extrap = noext = False
    ier = ierro = iroff1 = iroff2 = iroff3 = 0
    small = erlarg = ertest = correc = 0.0
    summed = False
    for last in range(2, _LIMIT + 1):
        # Bisect the interval with the nrmax-th largest error estimate.
        a1, b2 = alist[maxerr], blist[maxerr]
        a2 = b1 = 0.5 * (a1 + b2)
        erlast = errmax
        area1, error1, _, defab1 = rule(a1, b1)
        area2, error2, _, defab2 = rule(a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if defab1 != error1 and defab2 != error2:
            if abs(rlist[maxerr] - area12) <= 1e-5 * abs(area12) and erro12 >= 0.99 * errmax:
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2  # roundoff
        if iroff2 >= 5:
            ierro = 3
        if last == _LIMIT:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPS) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4  # bad integrand behaviour at a point
        if error2 > error1:
            alist[maxerr], alist[last], blist[last] = a2, a1, b1
            rlist[maxerr], rlist[last] = area2, area1
            elist[maxerr], elist[last] = error2, error1
        else:
            alist[last], blist[maxerr], blist[last] = a2, b1, b2
            elist[maxerr], elist[last] = error1, error2
        maxerr, nrmax = _qpsrt(last, maxerr, elist, iord, nrmax)
        errmax = elist[maxerr]
        if errsum <= errbnd:
            summed = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg -= erlast
        if abs(b1 - a1) > small:
            erlarg += erro12
        if not extrap:
            # Extrapolate only once the interval to bisect next is a smallest one.
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if ierro != 3 and erlarg > ertest:
            # The smallest intervals have the largest error: bisect the
            # larger ones first, while any is among those that can be.
            jupbnd = last if last <= 2 + _LIMIT // 2 else _LIMIT + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, nres, reseps, abseps = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        # Go back to bisecting the interval with the largest error.
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small *= 0.5
        erlarg = errsum
    if not summed:
        # Take the extrapolated value unless the plain sum is the better one.
        if abserr == _OFLOW:
            summed = True
        elif ier + ierro != 0:
            if ierro == 3:
                abserr += correc
            if result != 0.0 and area != 0.0:
                summed = abserr / abs(result) > errsum / abs(area)
            else:
                summed = abserr > errsum
    if summed:
        result = 0.0
        for k in range(1, last + 1):
            result += rlist[k]
        abserr = errsum
    return result, abserr, points * (2 * last - 1)
