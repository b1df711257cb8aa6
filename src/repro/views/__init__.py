"""Materialized temporal views with cost-based incremental maintenance.

See :mod:`repro.views.manager` for the registry / refresh chooser and
:mod:`repro.views.delta` for the delta algebra.  The facade entry points
are ``Tango.create_view`` / ``Tango.apply_updates`` /
``Tango.refresh_view``.
"""

from repro.views.manager import ViewManager

__all__ = ["ViewManager"]
